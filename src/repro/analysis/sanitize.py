"""The runtime half of repro.analysis: a sanitizer for simulated jobs.

Where the linter reads source, the sanitizer watches a job run.  With
``run_job(..., sanitize=True)`` (or campaign ``--sanitize``) every
point-to-point operation is tracked from post to completion to wait, so
the simulator can answer the questions an MPI debugger answers on a real
cluster:

- **deadlock diagnosis** — when the event heap drains with blocked
  ranks, the raw :class:`~repro.des.engine.DeadlockError` is upgraded to
  a :class:`DeadlockDiagnosis` that names the ranks in the wait-for
  cycle and the exact operations (kind, peer, tag, post time) each one
  is stuck on;
- **leak tracking** — operations still pending when the job ends
  (isends/irecvs that never completed) and requests that completed but
  were never waited are reported per rank; leaks make the job fail
  under sanitize;
- **nonce-reuse checking** — every AEAD seal's (key, nonce) pair is
  recorded and a repeat raises
  :class:`~repro.crypto.errors.NonceReuseError` *regardless of crypto
  backend or mode* (the modeled mode never calls a real seal, so this is
  the only check that covers it).

The sanitizer costs nothing when off: the hot paths test one attribute
against None.  It never changes virtual time — a sanitized run produces
byte-identical results and durations to an unsanitized one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.crypto.errors import NonceReuseError
from repro.defaults import current_defaults
from repro.des.engine import DeadlockError

if TYPE_CHECKING:
    from repro.des.process import Scheduler
    from repro.simmpi.request import Request


class DeadlockDiagnosis(DeadlockError):
    """A deadlock, upgraded with the wait-for cycle and pending ops.

    Subclasses :class:`DeadlockError` so existing handlers keep
    working; adds ``cycle`` (ranks forming the wait-for cycle, empty if
    none was identified) and ``waits`` (rank -> descriptions of the
    operations it is blocked on).
    """

    def __init__(self, message: str, cycle: list[int],
                 waits: dict[int, list[str]]):
        super().__init__(message)
        self.cycle = cycle
        self.waits = waits


class SanitizerError(RuntimeError):
    """A sanitized job finished but the sanitizer found leaks."""

    def __init__(self, report: "SanitizerReport"):
        super().__init__(report.summary())
        self.report = report


class PendingOp:
    """One tracked point-to-point operation (internal ops included)."""

    __slots__ = ("op_id", "rank", "kind", "peer", "tag", "nbytes",
                 "posted_at", "waited", "completed", "_san")

    def __init__(self, san: "Sanitizer", op_id: int, rank: int, kind: str,
                 peer: int, tag: int, nbytes: int, posted_at: float):
        self._san = san
        self.op_id = op_id
        self.rank = rank
        self.kind = kind
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.posted_at = posted_at
        self.waited = False
        self.completed = False

    def mark_waited(self) -> None:
        if not self.waited:
            self.waited = True
            self._san._unwaited.pop(self.op_id, None)

    def describe(self) -> str:
        peer = "ANY_SOURCE" if self.peer < 0 else f"rank {self.peer}"
        direction = "to" if self.kind == "send" else "from"
        size = f", {self.nbytes}B" if self.kind == "send" else ""
        return (f"{self.kind}({direction} {peer}, tag={self.tag}{size}) "
                f"posted at t={self.posted_at:.6f}")


@dataclass
class SanitizerReport:
    """What the sanitizer saw over one job."""

    nranks: int
    #: rank -> descriptions of ops posted but never completed
    leaked: dict[int, list[str]] = field(default_factory=dict)
    #: rank -> descriptions of ops completed but never waited
    unwaited: dict[int, list[str]] = field(default_factory=dict)
    #: rank -> descriptions of messages delivered but never received
    unmatched: dict[int, list[str]] = field(default_factory=dict)
    #: total (key, nonce) pairs checked for reuse
    nonces_checked: int = 0
    #: ops tracked post-to-completion over the whole job
    ops_tracked: int = 0
    #: True when a fault injector ran (unmatched checking is skipped:
    #: dropped/duplicated deliveries are the injector's business)
    fault_injection: bool = False

    @property
    def ok(self) -> bool:
        """No leaks: unwaited-but-completed requests are reported but
        do not fail the job (the payload was delivered)."""
        return not self.leaked and not self.unmatched

    def summary(self) -> str:
        lines = [
            f"sanitizer: {self.ops_tracked} ops tracked, "
            f"{self.nonces_checked} nonces checked"
        ]
        for title, per_rank in (
            ("leaked requests (posted, never completed)", self.leaked),
            ("completed but never waited", self.unwaited),
            ("unmatched messages (delivered, never received)",
             self.unmatched),
        ):
            if not per_rank:
                continue
            total = sum(len(v) for v in per_rank.values())
            lines.append(f"{title}: {total}")
            for rank in sorted(per_rank):
                for desc in per_rank[rank]:
                    lines.append(f"  rank {rank}: {desc}")
        if self.ok and not self.unwaited:
            lines.append("no leaks detected")
        return "\n".join(lines)


class Sanitizer:
    """Per-job runtime checker; one instance per sanitized run."""

    def __init__(self, nranks: int, *, fault_injection: bool = False):
        self.nranks = nranks
        self.fault_injection = fault_injection
        self._next_id = 0
        self._pending: dict[int, PendingOp] = {}
        self._unwaited: dict[int, PendingOp] = {}
        #: key -> {nonce -> first rank that used it}
        self._nonces: dict[bytes, dict[bytes, int]] = {}
        self.nonces_checked = 0
        self.ops_tracked = 0

    # -- operation tracking (called from simmpi.comm) -------------------

    def note_post(self, req: "Request", *, kind: str, rank: int, peer: int,
                  tag: int, nbytes: int, now: float) -> PendingOp:
        """Register a just-posted isend/irecv.  Must be called before
        the transport may complete the request (completion is observed
        through the request's completion callbacks)."""
        op = PendingOp(self, self._next_id, rank, kind, peer, tag,
                       nbytes, now)
        self._next_id += 1
        self.ops_tracked += 1
        self._pending[op.op_id] = op
        req._san_op = op
        req.callbacks.append(lambda _req, op=op: self._complete(op))
        return op

    def _complete(self, op: PendingOp) -> None:
        op.completed = True
        self._pending.pop(op.op_id, None)
        if not op.waited:
            self._unwaited[op.op_id] = op

    # -- nonce-reuse checking (called from encmpi.context) --------------

    def check_nonce(self, key: bytes, nonce: bytes, rank: int) -> None:
        """Record one AEAD (key, nonce) use; raise on any repeat.

        A repeat by the *same* rank (a restarted counter) is just as
        fatal as a collision between ranks, so any second sighting of
        the pair raises.
        """
        self.nonces_checked += 1
        seen = self._nonces.get(key)
        if seen is None:
            seen = self._nonces[key] = {}
        first = seen.get(nonce)
        if first is not None:
            raise NonceReuseError(
                f"nonce reuse under one key: nonce {nonce.hex()} first "
                f"used by rank {first}, used again by rank {rank}"
            )
        seen[nonce] = rank

    # -- deadlock diagnosis ---------------------------------------------

    def diagnose(self, scheduler: "Scheduler") -> DeadlockDiagnosis:
        """Build the wait-for diagnosis after a DeadlockError."""
        blocked = self._blocked_ranks(scheduler)
        waits: dict[int, list[str]] = {}
        edges: dict[int, set[int]] = {}
        for op in self._pending.values():
            if op.rank not in blocked:
                continue
            waits.setdefault(op.rank, []).append(op.describe())
            if op.peer >= 0:
                edges.setdefault(op.rank, set()).add(op.peer)
        cycle = _find_cycle(edges)
        lines = []
        if cycle:
            arrow = " -> ".join(f"rank {r}" for r in cycle + [cycle[0]])
            lines.append(f"deadlock: wait-for cycle {arrow}")
        else:
            ranks = ", ".join(f"rank {r}" for r in sorted(blocked))
            lines.append(
                f"deadlock: no progress possible; blocked: {ranks or '?'}"
            )
        order = cycle if cycle else sorted(waits)
        for rank in order:
            for desc in waits.get(rank, ["(no tracked pending ops)"]):
                lines.append(f"  rank {rank} waiting on {desc}")
        return DeadlockDiagnosis("\n".join(lines), cycle, waits)

    @staticmethod
    def _blocked_ranks(scheduler: "Scheduler") -> set[int]:
        blocked: set[int] = set()
        for proc in scheduler._procs:
            if proc.finished.done or proc._blocked_on is None:
                continue
            name = proc.name
            if name.startswith("rank") and name[4:].isdigit():
                blocked.add(int(name[4:]))
        return blocked

    # -- end-of-job accounting ------------------------------------------

    def finalize(self, matching_engines: Iterable = ()) -> SanitizerReport:
        """Account for everything once the event heap has drained."""
        report = SanitizerReport(
            nranks=self.nranks,
            nonces_checked=self.nonces_checked,
            ops_tracked=self.ops_tracked,
            fault_injection=self.fault_injection,
        )
        for op in sorted(self._pending.values(), key=lambda o: o.op_id):
            report.leaked.setdefault(op.rank, []).append(op.describe())
        for op in sorted(self._unwaited.values(), key=lambda o: o.op_id):
            if not op.waited:
                report.unwaited.setdefault(op.rank, []).append(op.describe())
        if not self.fault_injection:
            for engine in matching_engines:
                for src, tag in engine.unexpected_ops():
                    report.unmatched.setdefault(engine.rank, []).append(
                        f"message from rank {src}, tag={tag}"
                    )
        return report


def _find_cycle(edges: dict[int, set[int]]) -> list[int]:
    """First wait-for cycle in *edges*, as an ordered rank list."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {rank: WHITE for rank in edges}
    for start in sorted(edges):
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, Iterable[int]]] = [
            (start, iter(sorted(edges[start])))
        ]
        color[start] = GREY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in edges:
                    continue
                if color.get(nxt, WHITE) == GREY:
                    return path[path.index(nxt):]
                if color.get(nxt, WHITE) == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(edges[nxt]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return []


def resolve_sanitize(value: bool | None) -> bool:
    """None -> the process-wide default (:mod:`repro.defaults`, how
    campaign ``--sanitize`` reaches fork workers); else bool(value)."""
    return current_defaults().sanitize if value is None else bool(value)

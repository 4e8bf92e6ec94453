"""Symbolic communication graphs: the static verifier's data model.

The dataflow interpreter (:mod:`repro.analysis.dataflow`) executes a
rank program once per abstract rank and emits a sequence of
:class:`CommOp` records per rank — each carrying the *concrete* peer,
tag and size for that rank plus, where derivable, the *symbolic*
expression over ``rank``/``n`` that produced it (:class:`SymExpr`).
This module owns:

- the tiny symbolic-integer expression domain (``rank``, ``n``,
  integer constants, arithmetic/bit operators) used to render and
  substitute peer/tag/size expressions;
- the :class:`CommOp` / :class:`RankOps` / :class:`InstGraph` records
  (one instantiated graph per verified world size and configuration);
- :func:`check_graph`, the matching engine: a deterministic abstract
  scheduler that replays the per-rank op lists against each other and
  reports the MPI1xx findings —

  ======= ==========================================================
  MPI101  a send no recv ever matches (message would never arrive)
  MPI102  a posted receive nothing ever matches (stuck or leaked)
  MPI103  ranks disagree on the collective call sequence
  MPI104  blocking ops form a wait-for cycle (static deadlock,
          reported with the sanitizer's ``DeadlockDiagnosis`` cycle
          naming: ``rank 0 -> rank 1 -> rank 0``)
  MPI105  tag outside the user range, or a chunked-protocol send
          matched by a non-chunked receive (wire-format mismatch)
  ======= ==========================================================

The scheduler mirrors the simulator's semantics with one deliberate
(unsound, documented) simplification: sends complete eagerly — a
blocking ``send`` never blocks the sender.  Head-to-head rendezvous
deadlocks are MPI001's (syntactic) job; everything recv/wait/collective
-shaped is caught here semantically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.sanitize import _find_cycle
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, MAX_USER_TAG

#: collective op kinds (mirrors the CommHandle surface)
COLLECTIVE_KINDS = frozenset((
    "barrier", "bcast", "gather", "scatter", "allgather", "alltoall",
    "alltoallv", "reduce", "allreduce", "reduce_scatter", "scan",
))

P2P_KINDS = frozenset(("send", "isend", "recv", "irecv", "sendrecv",
                       "wait"))


# ---------------------------------------------------------------------------
# symbolic integer expressions over rank / n
# ---------------------------------------------------------------------------


class SymExpr:
    """A symbolic integer expression over ``rank`` and ``n``.

    Immutable tree of ``("var", name)``, ``("const", int)`` and
    ``(operator, left, right)`` nodes.  Only what peer/tag/size
    expressions in rank programs actually need: integer arithmetic and
    bit operators.  Evaluation under a concrete environment is exact;
    rendering is deterministic (used in findings and ``--json`` graph
    dumps, which must be byte-identical across runs).
    """

    __slots__ = ("op", "args")

    _BINOPS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "//": lambda a, b: a // b,
        "%": lambda a, b: a % b,
        "^": lambda a, b: a ^ b,
        "&": lambda a, b: a & b,
        "|": lambda a, b: a | b,
        "<<": lambda a, b: a << b,
        ">>": lambda a, b: a >> b,
    }

    def __init__(self, op: str, *args):
        self.op = op
        self.args = args

    # -- constructors ---------------------------------------------------

    @staticmethod
    def var(name: str) -> "SymExpr":
        return SymExpr("var", name)

    @staticmethod
    def const(value: int) -> "SymExpr":
        return SymExpr("const", int(value))

    @staticmethod
    def binop(op: str, left, right):
        """Combine two ints-or-SymExprs; folds when both are concrete."""
        if op not in SymExpr._BINOPS:
            return None
        if isinstance(left, int) and isinstance(right, int):
            return SymExpr._BINOPS[op](left, right)
        lhs = left if isinstance(left, SymExpr) else SymExpr.const(left)
        rhs = right if isinstance(right, SymExpr) else SymExpr.const(right)
        return SymExpr(op, lhs, rhs)

    # -- evaluation -----------------------------------------------------

    def subst(self, env: dict[str, int]) -> int:
        """Evaluate under *env* (maps ``rank``/``n`` to ints)."""
        if self.op == "const":
            return self.args[0]
        if self.op == "var":
            return env[self.args[0]]
        left = self.args[0].subst(env)
        right = self.args[1].subst(env)
        return self._BINOPS[self.op](left, right)

    def variables(self) -> set[str]:
        if self.op == "var":
            return {self.args[0]}
        if self.op == "const":
            return set()
        return self.args[0].variables() | self.args[1].variables()

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        return self._render(parent=None)

    def _render(self, parent: str | None) -> str:
        if self.op == "const":
            return str(self.args[0])
        if self.op == "var":
            return self.args[0]
        inner = "{} {} {}".format(
            self.args[0]._render(self.op), self.op,
            self.args[1]._render(self.op))
        return f"({inner})" if parent is not None else inner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymExpr<{self}>"

    def __eq__(self, other) -> bool:
        return isinstance(other, SymExpr) and self.op == other.op \
            and self.args == other.args

    def __hash__(self) -> int:
        return hash((self.op, self.args))


#: the abstract rank / world-size variables programs are symbolic over
RANK = SymExpr.var("rank")
WORLD = SymExpr.var("n")


def fit_symbolic(samples: list[tuple[int, int, int]]) -> SymExpr | None:
    """Fit a symbolic template to concrete ``(rank, n, value)`` samples.

    The interpreter runs concretely per rank; this recovers the
    rank-expression *for reporting* by trying a fixed template family
    in priority order (constants before shifts before modular wraps)
    and returning the first template consistent with every sample.
    Purely descriptive: a fitted expression never changes a verdict.
    """
    if len(samples) < 2:
        return None
    if any(not isinstance(v, int) for _r, _n, v in samples):
        return None

    def all_match(fn) -> bool:
        return all(fn(rank, n) == value for rank, n, value in samples)

    rank0, n0, value0 = samples[0]
    # const c
    if all_match(lambda r, n: value0):
        return SymExpr.const(value0)
    # rank + c
    c = value0 - rank0
    if all_match(lambda r, n: r + c):
        return SymExpr("+", RANK, SymExpr.const(c)) if c != 0 else RANK
    # c - rank
    c = value0 + rank0
    if all_match(lambda r, n: c - r):
        return SymExpr("-", SymExpr.const(c), RANK)
    # n - 1 - rank
    if all_match(lambda r, n: n - 1 - r):
        return SymExpr("-", SymExpr("-", WORLD, SymExpr.const(1)), RANK)
    # (rank + n // 2) % n
    if all(n > 0 for _r, n, _v in samples) and \
            all_match(lambda r, n: (r + n // 2) % n):
        half = SymExpr("//", WORLD, SymExpr.const(2))
        return SymExpr("%", SymExpr("+", RANK, half), WORLD)
    # (rank + c) % n
    if all(n > 0 for _r, n, _v in samples):
        c = (value0 - rank0) % n0
        if c and all_match(lambda r, n: (r + c) % n):
            return SymExpr("%", SymExpr("+", RANK, SymExpr.const(c)),
                           WORLD)
    # rank ^ c
    c = value0 ^ rank0
    if c > 0 and all_match(lambda r, n: r ^ c):
        return SymExpr("^", RANK, SymExpr.const(c))
    return None


def render_value(value) -> str:
    """Deterministic rendering of a concrete-or-symbolic op field."""
    if value is None:
        return "?"
    if isinstance(value, SymExpr):
        return str(value)
    if value == ANY_SOURCE:
        return "ANY"
    return str(value)


# ---------------------------------------------------------------------------
# op records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Site:
    """Where an op was issued: anchors findings to source."""

    path: str
    line: int
    col: int = 0

    def __str__(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass
class CommOp:
    """One communication operation issued by one abstract rank.

    ``peer``/``tag``/``size`` are the *concrete* values for the issuing
    rank (``None`` = statically unknown; negative wildcards pass
    through).  ``sym_peer``/``sym_tag`` keep the symbolic expression
    over ``rank``/``n`` when the interpreter could derive one — purely
    for reporting.  ``rtag``/``rpeer`` carry the receive half of a
    ``sendrecv``.
    """

    kind: str
    rank: int
    site: Site
    peer: int | None = None
    tag: int | None = None
    size: int | None = None
    rpeer: int | None = None
    rtag: int | None = None
    root: int | None = None
    channel: str = "plain"  # "plain" | "aead" | "chunked"
    req: int | None = None  # request id minted by isend/irecv
    waits_on: tuple[int, ...] = ()  # request ids a wait op blocks on
    sym_peer: SymExpr | None = None
    sym_tag: SymExpr | None = None

    @property
    def is_collective(self) -> bool:
        return self.kind in COLLECTIVE_KINDS

    def describe(self) -> str:
        """Render like the sanitizer's ``PendingOp.describe``."""
        if self.is_collective:
            root = f", root {self.root}" if self.root is not None else ""
            return f"{self.kind}(){root}"
        if self.kind in ("recv", "irecv"):
            src = "ANY" if self.peer == ANY_SOURCE else render_value(self.peer)
            tag = "ANY" if self.tag == ANY_TAG else render_value(self.tag)
            return f"{self.kind}(from rank {src}, tag={tag})"
        if self.kind == "sendrecv":
            return (f"sendrecv(to rank {render_value(self.peer)}, "
                    f"from rank {render_value(self.rpeer)})")
        if self.kind == "wait":
            return f"wait(reqs={list(self.waits_on)})"
        return (f"{self.kind}(to rank {render_value(self.peer)}, "
                f"tag={render_value(self.tag)})")


@dataclass
class RankOps:
    """The op list one abstract rank produced."""

    rank: int
    ops: list[CommOp] = field(default_factory=list)


@dataclass
class InstGraph:
    """A comm graph instantiated at one world size and configuration.

    ``notes`` collects extraction caveats ("opaque call", "loop
    truncated"…); ``incomplete`` means the op lists may be partial and
    match-completeness / deadlock verdicts must not be claimed.
    ``inapplicable`` means the program cannot run at this world size at
    all (peer out of range, explicit raise) and the graph is skipped.
    """

    nranks: int
    ranks: list[RankOps]
    config: str = ""
    notes: list[str] = field(default_factory=list)
    incomplete: bool = False
    inapplicable: bool = False

    def all_ops(self):
        for per_rank in self.ranks:
            yield from per_rank.ops


@dataclass(frozen=True)
class GraphIssue:
    """One verifier finding, pre-:class:`repro.analysis.findings.Finding`."""

    rule: str
    site: Site
    message: str


# ---------------------------------------------------------------------------
# the matching engine
# ---------------------------------------------------------------------------


class _RankState:
    __slots__ = ("ops", "pc", "sent_half", "arrived", "posted",
                 "done_reqs")

    def __init__(self, ops: list[CommOp]):
        self.ops = ops
        self.pc = 0
        self.sent_half = False  # sendrecv: send half already emitted
        self.arrived = False  # parked at a collective
        self.posted: list[dict] = []  # receive queue entries
        self.done_reqs: set[int] = set()

    @property
    def done(self) -> bool:
        return self.pc >= len(self.ops)

    @property
    def head(self) -> CommOp | None:
        return None if self.done else self.ops[self.pc]


def _recv_entry(op: CommOp, *, source, tag, req=None) -> dict:
    return {"op": op, "source": source, "tag": tag, "req": req,
            "matched": False}


def _accepts(entry: dict, send: CommOp) -> bool:
    src, tag = entry["source"], entry["tag"]
    if src is None or send.peer is None:
        return False  # unknown route: never claim a match either way
    if src != ANY_SOURCE and src != send.rank:
        return False
    if tag != ANY_TAG and send.tag is not None and tag != send.tag:
        return False
    return True


def check_graph(inst: InstGraph) -> list[GraphIssue]:
    """Replay the instantiated graph; return MPI1xx issues.

    Deterministic: ranks are swept in order, sends match posted
    receives in posting order, receives match in-flight sends in
    emission order — the same FIFO-per-route discipline the simulator's
    matching engine uses.
    """
    issues: list[GraphIssue] = []
    seen: set[tuple] = set()

    def issue(rule: str, site: Site, message: str) -> None:
        key = (rule, site.path, site.line, message)
        if key not in seen:
            seen.add(key)
            issues.append(GraphIssue(rule, site, message))

    for op in inst.all_ops():
        _check_tags(op, inst, issue)

    if inst.incomplete or inst.inapplicable:
        return issues

    n = inst.nranks
    states = [_RankState(per.ops) for per in inst.ranks]
    inflight: list[CommOp] = []  # unmatched sends, emission order

    def try_match_send(send: CommOp) -> bool:
        if send.peer is None or not 0 <= send.peer < n:
            return False
        for entry in states[send.peer].posted:
            if not entry["matched"] and _accepts(entry, send):
                entry["matched"] = True
                _check_protocol(send, entry["op"], issue)
                if entry["req"] is not None:
                    states[send.peer].done_reqs.add(entry["req"])
                return True
        return False

    def try_match_recv(state: _RankState, entry: dict) -> bool:
        for i, send in enumerate(inflight):
            if _accepts(entry, send):
                entry["matched"] = True
                _check_protocol(send, entry["op"], issue)
                if entry["req"] is not None:
                    state.done_reqs.add(entry["req"])
                del inflight[i]
                return True
        return False

    def emit_send(op: CommOp, *, peer, tag) -> None:
        send = op if (peer == op.peer and tag == op.tag) else \
            replace(op, peer=peer, tag=tag)
        if not try_match_send(send):
            inflight.append(send)

    def step(state: _RankState) -> bool:
        """Advance one rank by at most one op; True if it progressed."""
        op = state.head
        if op is None:
            return False
        if op.is_collective:
            if not state.arrived:
                state.arrived = True
                return True
            return False
        if op.kind in ("send", "isend"):
            emit_send(op, peer=op.peer, tag=op.tag)
            state.pc += 1
            return True
        if op.kind == "irecv":
            entry = _recv_entry(op, source=op.peer, tag=op.tag, req=op.req)
            state.posted.append(entry)
            try_match_recv(state, entry)
            state.pc += 1
            return True
        if op.kind == "recv":
            entry = state.posted[-1] if state.posted and \
                state.posted[-1]["op"] is op else None
            if entry is None:
                entry = _recv_entry(op, source=op.peer, tag=op.tag)
                state.posted.append(entry)
                try_match_recv(state, entry)
            if entry["matched"] or op.peer is None:
                state.pc += 1
                return True
            return False
        if op.kind == "sendrecv":
            if not state.sent_half:
                state.sent_half = True
                emit_send(op, peer=op.peer, tag=op.tag)
                entry = _recv_entry(op, source=op.rpeer, tag=op.rtag)
                state.posted.append(entry)
                try_match_recv(state, entry)
            entry = state.posted[-1]
            if entry["matched"] or op.rpeer is None:
                state.sent_half = False
                state.pc += 1
                return True
            return False
        if op.kind == "wait":
            known = [r for r in op.waits_on if r is not None]
            if all(r in state.done_reqs or r in _SEND_REQS for r in known):
                state.pc += 1
                return True
            # re-scan: an irecv's match may have completed it above
            pending = [r for r in known if r not in state.done_reqs
                       and r not in _SEND_REQS]
            if not pending:
                state.pc += 1
                return True
            return False
        # unknown op kind: skip (extraction already noted it)
        state.pc += 1
        return True

    _SEND_REQS = {
        op.req for op in inst.all_ops()
        if op.kind == "isend" and op.req is not None
    }

    guard = 0
    limit = 10_000 * max(1, n)
    while True:
        guard += 1
        if guard > limit:  # pragma: no cover - budget backstop
            inst.notes.append("matching budget exceeded")
            return issues
        progressed = False
        for state in states:
            while step(state):
                progressed = True
                if state.arrived:
                    break
        if all(s.done for s in states):
            break
        arrived = [s for s in states if s.arrived]
        if len(arrived) == n:
            # every rank parked at a collective: check signatures agree
            heads = [s.head for s in states]
            ref = heads[0]
            for r, op in enumerate(heads[1:], start=1):
                if op.kind != ref.kind or op.root != ref.root:
                    issue("MPI103", op.site,
                          f"collective order diverges: rank {r} calls "
                          f"{op.describe()} where rank 0 calls "
                          f"{ref.describe()}")
            for s in states:
                s.arrived = False
                s.pc += 1
            continue
        if progressed:
            continue
        if arrived and all(s.done or s.arrived for s in states):
            # collective arity divergence: somebody already returned
            done_ranks = [r for r, s in enumerate(states) if s.done]
            for s in arrived:
                op = s.head
                issue("MPI103", op.site,
                      f"collective never completes: rank {op.rank} calls "
                      f"{op.describe()} but rank {done_ranks[0]}'s program "
                      f"has already finished")
            break
        # no progress, not all done: some ranks stuck
        _report_stuck(inst, states, issue)
        break

    for send in inflight:
        if send.peer is None:
            continue
        issue("MPI101", send.site,
              f"send never received: rank {send.rank} "
              f"{send.describe()} has no matching receive"
              + (f" [peer = {send.sym_peer}]"
                 if send.sym_peer is not None
                 and send.sym_peer.variables() else ""))
    for state in states:
        for entry in state.posted:
            if not entry["matched"]:
                op = entry["op"]
                if op.kind == "irecv":
                    issue("MPI102", op.site,
                          f"receive never completes: rank {op.rank} "
                          f"{op.describe()} is never matched by any send")
    return issues


def _check_tags(op: CommOp, inst: InstGraph, issue) -> None:
    """MPI105 part one: user tags must stay below MAX_USER_TAG."""
    for label, tag in (("tag", op.tag), ("recv tag", op.rtag)):
        if tag is None or op.is_collective:
            continue
        if tag == ANY_TAG and (op.kind in ("recv", "irecv")
                               or label == "recv tag"):
            continue
        if not 0 <= tag < MAX_USER_TAG:
            sym = f" ({op.sym_tag})" if op.sym_tag is not None \
                and op.sym_tag.variables() else ""
            issue("MPI105", op.site,
                  f"{label} {tag}{sym} outside the user tag range "
                  f"[0, {MAX_USER_TAG}) at world size {inst.nranks} — "
                  f"tags at or above MAX_USER_TAG belong to the "
                  f"collective/chunk wire protocol")


def _check_protocol(send: CommOp, recv: CommOp, issue) -> None:
    """MPI105 part two: wire-format consistency on a matched route."""
    if send.channel != recv.channel:
        issue("MPI105", send.site,
              f"wire-protocol mismatch: rank {send.rank} sends via "
              f"{send.channel!r} framing but rank {recv.rank} receives "
              f"via {recv.channel!r} (tag {render_value(send.tag)}) — "
              f"the chunked CryptoPlan protocol and plain receives do "
              f"not interoperate")


def _report_stuck(inst: InstGraph, states: list["_RankState"],
                  issue) -> None:
    """Build the wait-for graph over stuck ranks; report the cycle with
    the sanitizer's ``DeadlockDiagnosis`` naming, or MPI102 for ranks
    stuck with no cycle."""
    n = inst.nranks
    edges: dict[int, set[int]] = {}
    waits: dict[int, list[str]] = {}
    for r, state in enumerate(states):
        op = state.head
        if op is None:
            continue
        waits.setdefault(r, []).append(op.describe())
        targets: set[int] = set()
        if op.is_collective:
            targets = {o for o in range(n)
                       if o != r and not states[o].done}
        elif op.kind in ("recv", "sendrecv"):
            src = op.rpeer if op.kind == "sendrecv" else op.peer
            if src == ANY_SOURCE:
                targets = {o for o in range(n)
                           if o != r and not states[o].done}
            elif src is not None and 0 <= src < n:
                targets = {src}
        elif op.kind == "wait":
            for entry in state.posted:
                if entry["req"] in op.waits_on and not entry["matched"]:
                    src = entry["source"]
                    if src == ANY_SOURCE:
                        targets |= {o for o in range(n)
                                    if o != r and not states[o].done}
                    elif src is not None and 0 <= src < n:
                        targets.add(src)
        if targets:
            edges[r] = targets
    cycle = _find_cycle(edges)
    if cycle:
        arrow = " -> ".join(f"rank {r}" for r in cycle + [cycle[0]])
        detail = "; ".join(
            f"rank {r} waiting on {waits[r][0]}" for r in cycle
            if r in waits)
        anchor = states[cycle[0]].head
        issue("MPI104", anchor.site,
              f"static wait-for cycle {arrow} at world size {n}: "
              f"{detail}")
        return
    for r in sorted(waits):
        op = states[r].head
        if op is None or op.is_collective:
            continue
        if op.kind in ("recv", "sendrecv", "wait"):
            issue("MPI102", op.site,
                  f"receive never completes: rank {r} blocks on "
                  f"{op.describe()} and no send ever matches it")

"""Structured event tracing, and the views folded from the event stream.

``run_program(..., trace=True)`` (or ``api.run_job(trace=True)``, or a
:class:`TraceRecorder` you construct and pass in) records one product:
the timestamped typed events of every layer of the stack (DES engine
process lifecycle, transport send/deliver/match, collective phases,
AEAD seal/open with backend + bytes + virtual duration, auth failures,
replay drops, reliability retries).  ``trace=True`` keeps every event.
Everything else is a view over that stream, computed when read:

- :attr:`TraceRecorder.comm` — a :class:`CommTrace` of per-route
  traffic statistics (bytes per rank pair, message-size histogram, wire
  overhead), folded from the ``send_posted`` events: the
  communication-characterization data the NAS skeleton volumes are
  based on.  Quickstart: ``examples/comm_characterization.py``.
- :meth:`TraceRecorder.rank_counters` and
  :meth:`TraceRecorder.counters_snapshot` — per-rank
  :class:`RankCounters`, folded from the :data:`COUNTED_KINDS`.

Events carry *virtual* timestamps; the simulator's strict handoff
discipline makes the event stream fully deterministic, which is what the
golden-trace harness (``tests/simmpi/test_golden_traces.py``) pins:
:meth:`TraceRecorder.digest` hashes the canonical serialization, and
identical programs must produce identical digests run after run and
across AEAD backends (the ``backend`` field is excluded from the
canonical form for exactly that reason).

Exporters: :meth:`TraceRecorder.to_jsonl` (one JSON object per event)
and :meth:`TraceRecorder.to_chrome_trace` (the ``chrome://tracing`` /
Perfetto JSON format; collective phases become B/E spans, AEAD work
becomes complete X slices).

Tracing is zero-cost when disabled: every emit site is guarded by an
``if recorder is not None`` check and no event objects are allocated on
the hot path unless a recorder is attached.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class RouteStats:
    messages: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0


@dataclass
class CommTrace:
    """Aggregated traffic statistics for one simulated job."""

    routes: dict[tuple[int, int], RouteStats] = field(default_factory=dict)
    #: message-size histogram: log2 bucket -> count (bucket b holds
    #: sizes in [2^b, 2^(b+1)); empty messages land in bucket -1)
    size_histogram: dict[int, int] = field(default_factory=dict)
    total_messages: int = 0
    total_payload_bytes: int = 0
    total_wire_bytes: int = 0

    def record(self, src: int, dst: int, payload_bytes: int, wire_bytes: int) -> None:
        stats = self.routes.setdefault((src, dst), RouteStats())
        stats.messages += 1
        stats.payload_bytes += payload_bytes
        stats.wire_bytes += wire_bytes
        bucket = -1 if payload_bytes == 0 else int(math.log2(payload_bytes))
        self.size_histogram[bucket] = self.size_histogram.get(bucket, 0) + 1
        self.total_messages += 1
        self.total_payload_bytes += payload_bytes
        self.total_wire_bytes += wire_bytes

    # -- analysis helpers ---------------------------------------------------

    def bytes_sent_by(self, rank: int) -> int:
        return sum(s.payload_bytes for (src, _dst), s in self.routes.items() if src == rank)

    def bytes_received_by(self, rank: int) -> int:
        return sum(s.payload_bytes for (_src, dst), s in self.routes.items() if dst == rank)

    def matrix(self, nranks: int) -> list[list[int]]:
        """Dense bytes matrix m[src][dst] (payload bytes)."""
        m = [[0] * nranks for _ in range(nranks)]
        for (src, dst), stats in self.routes.items():
            m[src][dst] = stats.payload_bytes
        return m

    def heaviest_routes(self, n: int = 10) -> list[tuple[tuple[int, int], RouteStats]]:
        return sorted(
            self.routes.items(), key=lambda kv: kv[1].payload_bytes, reverse=True
        )[:n]

    def wire_overhead_fraction(self) -> float:
        """Extra wire bytes over payload bytes (the +28/message cost)."""
        if self.total_payload_bytes == 0:
            return 0.0
        return (
            self.total_wire_bytes - self.total_payload_bytes
        ) / self.total_payload_bytes

    def render(self, nranks: int | None = None) -> str:
        lines = [
            f"messages: {self.total_messages}, payload: "
            f"{self.total_payload_bytes / 1e6:.2f} MB, wire: "
            f"{self.total_wire_bytes / 1e6:.2f} MB "
            f"(+{self.wire_overhead_fraction() * 100:.2f}%)",
            "size histogram (log2 buckets):",
        ]
        for bucket in sorted(self.size_histogram):
            label = "0B" if bucket == -1 else f"2^{bucket}"
            lines.append(f"  {label:>6s}: {self.size_histogram[bucket]}")
        lines.append("heaviest routes:")
        for (src, dst), stats in self.heaviest_routes(5):
            lines.append(
                f"  {src}->{dst}: {stats.messages} msgs, "
                f"{stats.payload_bytes / 1e6:.3f} MB"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# structured event tracing
# ---------------------------------------------------------------------------

#: The layers that emit events, in stack order.  ``cpu`` carries the
#: core_busy events of the per-node helper-core allocator
#: (repro.models.cpu.CoreAllocator); serial jobs emit none, keeping
#: their digests identical to pre-allocator goldens.
TRACE_LAYERS = ("engine", "transport", "collective", "aead", "encmpi", "cpu")

#: Event fields excluded from the canonical (digest) serialization.
#: ``backend`` names which AEAD implementation computed the bytes — a
#: host property, not a simulation outcome — so cross-backend runs of
#: one program must hash identically.
DIGEST_EXCLUDED_KEYS = frozenset({"backend"})


@dataclass(slots=True)
class TraceEvent:
    """One timestamped typed event.

    ``t`` is virtual seconds; ``rank`` is the acting global rank (-1 for
    job-level events); ``data`` holds kind-specific fields (src, dst,
    tag, bytes, dur, ...).
    """

    t: float
    layer: str
    kind: str
    rank: int
    data: dict

    def as_dict(self) -> dict:
        out = {"t": self.t, "layer": self.layer, "kind": self.kind,
               "rank": self.rank}
        out.update(self.data)
        return out


@dataclass
class RankCounters:
    """Aggregate per-rank activity counters (one snapshot per rank)."""

    messages_sent: int = 0
    messages_received: int = 0
    payload_bytes_sent: int = 0
    wire_bytes_sent: int = 0
    collectives: int = 0
    aead_seals: int = 0
    aead_opens: int = 0
    bytes_sealed: int = 0
    bytes_opened: int = 0
    nonces_consumed: int = 0
    auth_failures: int = 0
    replay_drops: int = 0
    # reliable-delivery layer (repro.simmpi.resilience); all zero — and
    # the retry/nack/ack/gave_up events absent — unless a
    # ResiliencePolicy is armed, keeping golden digests unchanged
    retransmits: int = 0
    nacks: int = 0
    acks: int = 0
    gave_ups: int = 0
    # cryptmpi pipelined encryption (repro.encmpi.pipeline); zero unless
    # the job runs with CryptoPlan(mode="cryptmpi")
    chunk_seals: int = 0
    chunk_opens: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)

    def count(self, event: TraceEvent) -> None:
        """Fold one counted event (see :data:`COUNTED_KINDS`) in."""
        kind, data = event.kind, event.data
        if kind == "send_posted":
            self.messages_sent += 1
            self.payload_bytes_sent += data["bytes"]
            self.wire_bytes_sent += data["wire"]
        elif kind == "seal":
            self.aead_seals += 1
            self.bytes_sealed += data["bytes"]
            self.nonces_consumed += 1
            self.chunk_seals += "chunk" in data
        elif kind == "open":
            self.aead_opens += 1
            self.bytes_opened += data["bytes"]
            self.chunk_opens += "chunk" in data
        else:
            name = _TALLIES[kind]
            setattr(self, name, getattr(self, name) + 1)


#: counter each tally-only event kind bumps by one on the event's rank
_TALLIES = {
    "wire_end": "messages_received",
    "coll_begin": "collectives",
    "auth_fail": "auth_failures",
    "replay_drop": "replay_drops",
    "retry": "retransmits",
    "nack": "nacks",
    "ack": "acks",
    "gave_up": "gave_ups",
}

#: The event kinds :class:`RankCounters` fold: the tallies, plus
#: ``send_posted`` (messages and bytes sent) and AEAD ``seal``/``open``
#: (bytes, nonces, and chunk frames, the events carrying ``chunk``).
COUNTED_KINDS = frozenset(_TALLIES) | {"send_posted", "seal", "open"}


class TraceRecorder:
    """Records the typed event stream of one simulated job.

    Pass ``trace=True`` to ``run_program`` / ``api.run_job`` and take the
    recorder from the result, or construct one and pass it in.  A
    recorder binds to exactly one job (its clock); reusing one across
    jobs is an error.

    The stream is the only record: :attr:`comm`, :meth:`rank_counters`,
    :meth:`counters_snapshot` and :meth:`summary` fold it when read.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._sched = None

    # -- wiring -----------------------------------------------------------

    def __getstate__(self) -> dict:
        # The attached scheduler holds OS-level locks and cannot cross a
        # process boundary.  A recorder only needs its clock while the job
        # is running, so detach it; parallel sweep ships finished
        # recorders back from pool workers this way.
        state = self.__dict__.copy()
        state["_sched"] = None
        return state

    def attach(self, scheduler) -> None:
        """Bind the recorder to a job's scheduler (its virtual clock)."""
        if self._sched is not None and self._sched is not scheduler:
            raise RuntimeError(
                "TraceRecorder is already attached to another job; "
                "use a fresh recorder per run"
            )
        self._sched = scheduler

    @property
    def now(self) -> float:
        return self._sched.now if self._sched is not None else 0.0

    # -- recording --------------------------------------------------------

    def emit(self, layer: str, kind: str, rank: int, **data) -> None:
        """Append one event stamped at the current virtual time."""
        self.events.append(TraceEvent(self.now, layer, kind, rank, data))

    # -- views ------------------------------------------------------------

    @property
    def comm(self) -> CommTrace:
        """Per-route traffic statistics, folded from ``send_posted``."""
        view = CommTrace()
        for e in self.events:
            if e.kind == "send_posted":
                view.record(e.rank, e.data["dst"], e.data["bytes"],
                            e.data["wire"])
        return view

    def _counters(self) -> dict[int, RankCounters]:
        """Per-rank counters of every rank with a counted event."""
        counters: dict[int, RankCounters] = {}
        for e in self.events:
            if e.kind in COUNTED_KINDS:
                c = counters.get(e.rank)
                if c is None:
                    c = counters[e.rank] = RankCounters()
                c.count(e)
        return dict(sorted(counters.items()))

    def rank_counters(self, rank: int) -> RankCounters:
        """One rank's counters (all zero for a rank that did nothing)."""
        return self._counters().get(rank) or RankCounters()

    # -- inspection -------------------------------------------------------

    def layers(self) -> set[str]:
        """The set of layers that emitted at least one event."""
        return {e.layer for e in self.events}

    def events_in(self, layer: str | None = None, kind: str | None = None
                  ) -> list[TraceEvent]:
        return [
            e for e in self.events
            if (layer is None or e.layer == layer)
            and (kind is None or e.kind == kind)
        ]

    def kind_counts(self) -> Counter:
        return Counter(e.kind for e in self.events)

    def counters_snapshot(self) -> dict[int, dict]:
        """Per-rank counter snapshots, keyed by global rank."""
        return {r: c.snapshot() for r, c in self._counters().items()}

    # -- canonical form and digest ----------------------------------------

    def canonical_lines(self) -> list[str]:
        """Deterministic one-line-per-event serialization.

        Keys are sorted, floats use their shortest round-trip repr (the
        ``json`` default), and :data:`DIGEST_EXCLUDED_KEYS` are dropped —
        so two runs of the same program yield byte-identical lines even
        when the AEAD byte-work is done by different backends.
        """
        lines = []
        for e in self.events:
            data = {k: v for k, v in e.data.items()
                    if k not in DIGEST_EXCLUDED_KEYS}
            lines.append(json.dumps(
                [e.t, e.layer, e.kind, e.rank, data],
                sort_keys=True, separators=(",", ":"),
            ))
        return lines

    def digest(self) -> str:
        """SHA-256 over the canonical serialization (the golden hash)."""
        h = hashlib.sha256()
        for line in self.canonical_lines():
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()

    # -- exporters --------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per event (full fidelity, backend included)."""
        return "\n".join(
            json.dumps(e.as_dict(), sort_keys=True) for e in self.events
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())
            fh.write("\n")

    def to_chrome_trace(self) -> dict:
        """The ``chrome://tracing`` / Perfetto JSON document.

        Each rank becomes a process; each layer a thread within it.
        Collective phases map to B/E spans, events carrying a ``dur``
        field (AEAD work) to complete X slices, everything else to
        instants.  Timestamps are virtual microseconds.
        """
        tid_of = {layer: i for i, layer in enumerate(TRACE_LAYERS)}
        out: list[dict] = []
        ranks = sorted({e.rank for e in self.events})
        for rank in ranks:
            name = f"rank {rank}" if rank >= 0 else "job"
            out.append({"ph": "M", "name": "process_name", "pid": rank,
                        "tid": 0, "args": {"name": name}})
            for layer, tid in tid_of.items():
                out.append({"ph": "M", "name": "thread_name", "pid": rank,
                            "tid": tid, "args": {"name": layer}})
        for e in self.events:
            base = {
                "name": e.kind,
                "cat": e.layer,
                "pid": e.rank,
                "tid": tid_of.get(e.layer, len(tid_of)),
                "ts": e.t * 1e6,
                "args": dict(e.data),
            }
            if e.kind == "coll_begin":
                base["ph"] = "B"
                base["name"] = e.data.get("op", "collective")
            elif e.kind == "coll_end":
                base["ph"] = "E"
                base["name"] = e.data.get("op", "collective")
            elif "dur" in e.data:
                base["ph"] = "X"
                base["dur"] = e.data["dur"] * 1e6
            else:
                base["ph"] = "i"
                base["s"] = "t"
            out.append(base)
        return {"traceEvents": out, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)
            fh.write("\n")

    # -- reporting --------------------------------------------------------

    def summary(self) -> str:
        lines = [f"events: {len(self.events)}  digest: {self.digest()[:16]}…"]
        by_layer = Counter(e.layer for e in self.events)
        for layer in TRACE_LAYERS:
            if layer not in by_layer:
                continue
            kinds = Counter(
                e.kind for e in self.events if e.layer == layer
            )
            detail = ", ".join(f"{k}×{n}" for k, n in sorted(kinds.items()))
            lines.append(f"  {layer:10s} {by_layer[layer]:6d}  ({detail})")
        counters = self._counters()
        if counters:
            lines.append("per-rank counters:")
            for rank, c in counters.items():
                lines.append(
                    f"  rank {rank}: sent {c.messages_sent} "
                    f"({c.payload_bytes_sent}B payload/{c.wire_bytes_sent}B wire), "
                    f"recv {c.messages_received}, aead {c.aead_seals}s/"
                    f"{c.aead_opens}o ({c.bytes_sealed}B/{c.bytes_opened}B), "
                    f"nonces {c.nonces_consumed}"
                )
        return "\n".join(lines)


def check_trace(trace):
    """Validate a ``trace=`` argument and return it.

    ``False``/``None`` turns tracing off, ``True`` asks for a fresh
    :class:`TraceRecorder` per job, and a recorder records into itself.
    Anything else, strings included, raises :class:`TypeError`.
    """
    if trace is None or isinstance(trace, (bool, TraceRecorder)):
        return trace
    raise TypeError(
        f"trace must be True, False/None or a TraceRecorder, got {trace!r}"
    )


def resolve_trace(trace) -> TraceRecorder | None:
    """The recorder a ``trace=`` argument selects (None when off)."""
    if check_trace(trace) is True:
        return TraceRecorder()
    return trace if isinstance(trace, TraceRecorder) else None

"""Static-vs-dynamic conformance: soundness telemetry for the verifier.

The static verifier claims to predict a program's communication graph.
This module audits that claim against ground truth: it replays a golden
run (:mod:`repro.experiments.goldens`) with full event tracing, reads
the recorded event stream, and diffs what the transport actually
matched against what :func:`repro.analysis.dataflow.extract_callable`
predicted.

Two directions, two failure modes:

- **unexplained dynamic ops** — the wire carried a user-tag message the
  static graph never predicted: the verifier under-approximated, and
  its "verified clean" stamps are weaker than claimed.  This is the
  number ``make check-conformance`` gates on (must be zero).
- **unrealized static ops** — the verifier predicted traffic that never
  happened: over-approximation; harmless for soundness but reported.

Internal-tag traffic (tags at or above ``MAX_USER_TAG``: collective
fan-out and chunk-protocol frames) is explained by predicted collective
/ chunked ops rather than matched one-to-one — the static model treats
collectives as opaque single ops, so their transport-level expansion is
expected and counted, not diffed.

The report renders deterministically (the simulator's schedules are
reproducible and all aggregation is sorted), so running it twice must
produce byte-identical output — ``make check-conformance`` does exactly
that.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.commgraph import InstGraph
from repro.simmpi.message import MAX_USER_TAG

#: goldens small enough for the conformance gate (the fast tier)
FAST_GOLDENS = ("bcast", "enc_multipair", "pingpong")


@dataclass
class ConformanceReport:
    """The diff between one golden's predicted and recorded comm."""

    name: str
    nranks: int
    predicted_sends: Counter = field(default_factory=Counter)
    dynamic_matches: Counter = field(default_factory=Counter)
    predicted_collectives: dict[int, list[str]] = field(
        default_factory=dict)
    dynamic_collectives: dict[int, list[str]] = field(
        default_factory=dict)
    internal_matches: int = 0
    static_incomplete: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def unexplained_dynamic(self) -> list[tuple]:
        """User-tag routes the wire carried but the graph lacks."""
        extra = self.dynamic_matches - self.predicted_sends
        return sorted(extra.elements())

    @property
    def unrealized_static(self) -> list[tuple]:
        """Predicted routes that never appeared on the wire."""
        extra = self.predicted_sends - self.dynamic_matches
        return sorted(extra.elements())

    @property
    def collective_agreement(self) -> bool:
        ranks = set(self.predicted_collectives) \
            | set(self.dynamic_collectives)
        return all(self.predicted_collectives.get(rank, [])
                   == self.dynamic_collectives.get(rank, [])
                   for rank in ranks)

    @property
    def internal_explained(self) -> bool:
        if self.internal_matches == 0:
            return True
        return any(self.predicted_collectives.values())

    @property
    def ok(self) -> bool:
        return (not self.unexplained_dynamic
                and self.collective_agreement
                and self.internal_explained
                and not self.static_incomplete)

    def format(self) -> str:
        lines = [f"conformance {self.name}: nranks={self.nranks} "
                 f"[{'ok' if self.ok else 'FAIL'}]"]
        lines.append(
            f"  p2p: predicted {sum(self.predicted_sends.values())} "
            f"sends, observed {sum(self.dynamic_matches.values())} "
            f"user-tag matches, unexplained "
            f"{len(self.unexplained_dynamic)}, unrealized "
            f"{len(self.unrealized_static)}")
        for src, dst, tag in self.unexplained_dynamic:
            lines.append(f"    unexplained: rank {src} -> rank {dst} "
                         f"tag {tag}")
        for src, dst, tag in self.unrealized_static:
            lines.append(f"    unrealized: rank {src} -> rank {dst} "
                         f"tag {tag}")
        coll_counts = sorted(
            {rank: len(seq)
             for rank, seq in self.dynamic_collectives.items()}.items())
        agreement = "agree" if self.collective_agreement else "DIVERGE"
        rendered = ", ".join(f"rank {r}: {c}" for r, c in coll_counts) \
            if coll_counts else "none"
        lines.append(f"  collectives: {agreement} ({rendered})")
        if not self.collective_agreement:
            for rank in sorted(set(self.predicted_collectives)
                               | set(self.dynamic_collectives)):
                lines.append(
                    f"    rank {rank}: predicted "
                    f"{self.predicted_collectives.get(rank, [])} "
                    f"observed "
                    f"{self.dynamic_collectives.get(rank, [])}")
        explained = "explained by predicted collectives" \
            if self.internal_explained else "UNEXPLAINED"
        lines.append(
            f"  protocol traffic: {self.internal_matches} "
            f"internal-tag matches ({explained})")
        if self.static_incomplete:
            lines.append("  static graph incomplete: " +
                         "; ".join(self.notes))
        return "\n".join(lines)


def _static_side(graphs: list[InstGraph],
                 report: ConformanceReport) -> None:
    exact = [g for g in graphs
             if not g.inapplicable and not g.incomplete]
    if not exact:
        report.static_incomplete = True
        for graph in graphs:
            report.notes.extend(graph.notes)
        return
    graph = exact[0]
    for per_rank in graph.ranks:
        report.predicted_collectives[per_rank.rank] = [
            op.kind for op in per_rank.ops if op.is_collective]
    for op in graph.all_ops():
        if op.kind in ("send", "isend") and op.peer is not None:
            report.predicted_sends[(op.rank, op.peer, op.tag or 0)] += 1
        elif op.kind == "sendrecv" and op.peer is not None:
            report.predicted_sends[(op.rank, op.peer, op.tag or 0)] += 1


def _dynamic_side(events, report: ConformanceReport) -> None:
    for event in events:
        layer, kind = event.layer, event.kind
        if layer == "transport" and kind == "match":
            tag = event.data.get("tag", 0)
            if tag >= MAX_USER_TAG:
                report.internal_matches += 1
            else:
                report.dynamic_matches[
                    (event.data["src"], event.rank, tag)] += 1
        elif layer == "collective" and kind == "coll_begin":
            report.dynamic_collectives.setdefault(
                event.rank, []).append(event.data.get("op", "?"))


def check_golden(name: str, backend: str = "auto") -> ConformanceReport:
    """Run one golden, extract its program statically, diff the two."""
    from repro.analysis.dataflow import extract_callable
    from repro.experiments.goldens import GOLDEN_RUNS, run_golden

    spec = GOLDEN_RUNS[name]
    report = ConformanceReport(name=name, nranks=spec.nranks)
    program = spec.build(spec.size)
    _static_side(extract_callable(program, nranks=spec.nranks), report)
    recorder = run_golden(name, backend=backend)
    _dynamic_side(recorder.events, report)
    return report


def conformance_report(names=None) -> str:
    """The full deterministic report over *names* (default fast tier)."""
    selected = sorted(names) if names else list(FAST_GOLDENS)
    return "\n".join(check_golden(name).format() for name in selected)


def conformance_ok(names=None) -> bool:
    selected = sorted(names) if names else list(FAST_GOLDENS)
    return all(check_golden(name).ok for name in selected)


__all__ = [
    "FAST_GOLDENS",
    "ConformanceReport",
    "check_golden",
    "conformance_ok",
    "conformance_report",
]

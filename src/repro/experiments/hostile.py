"""The ``hostile`` experiment: encrypted microbenchmarks on jittery,
lossy WAN/IoT fabrics, reported with bootstrap confidence bounds.

Where the ``resilience`` experiment injected faults on a clean fabric,
this sweep moves the whole link into hostile territory: the ``wan`` and
``iot`` presets (high latency, low bandwidth) with seeded latency
jitter, bandwidth wobble, and iid loss — the regime where the
reliable-delivery layer's retransmit/backoff choices dominate the
numbers instead of perturbing them.  Three sections share one table:

- ``pp``  — encrypted ping-pong, library x fabric x loss x backoff;
- ``mp``  — multipair window streaming (aggregate goodput);
- ``mt``  — the OMB-Py-style multi-threaded latency pattern
  (:mod:`repro.workloads.mtlatency`), channels x fabric.

Every cell is ``REPS`` seeded repetitions (the fabric seed is offset
per rep — common random numbers across cells, so policy comparisons
are paired) summarized per ``repro.experiments.stats``: median +
percentile-bootstrap CI for latencies, ratio-of-sums aggregation for
goodput.  Everything is virtual-time and seeded, so every run renders
the committed ``results/hostile.*`` byte for byte — ``make
check-artifacts`` pins exactly that.
"""

from __future__ import annotations

from dataclasses import replace

from repro.encmpi import CryptoPlan
from repro.experiments.report import Artifact
from repro.experiments.stats import (
    StatsSpec,
    aggregate_rate,
    estimate,
    rep_networks,
)
from repro.models.network import FabricSpec
from repro.simmpi.resilience import ResiliencePolicy
from repro.util.tables import Table

#: seeded repetitions per cell
REPS = 20
CONFIDENCE = 0.95

MSG_BYTES = 1024
PP_ITERS = 8
MP_PAIRS = 2
MP_WINDOW = 8
MP_ITERS = 2
MT_BYTES = 512
MT_ITERS = 4

#: (label, noisy base spec) — loss is grafted on per cell below.  Both
#: fabrics share one master seed: repetitions offset it identically, so
#: every cell sees the same noise sequence (paired comparisons).
FABRIC_CELLS = (
    ("wan", FabricSpec(base="wan", jitter=0.10, wobble=0.05, seed=509)),
    ("iot", FabricSpec(base="iot", jitter=0.20, wobble=0.10, seed=509)),
)

LOSS_CELLS = (("2%", 0.02), ("8%", 0.08))

LIBRARIES = ("boringssl", "libsodium")

#: Backoff discipline is the variable; a message that exhausts its
#: retry budget fails the cell, and 6 retries suffice even on iot @ 8%
#: loss.
POLICY_CELLS = (
    ("expo", ResiliencePolicy(max_retries=6, timeout=5e-3,
                              backoff="exponential")),
    ("fixed", ResiliencePolicy(max_retries=6, timeout=5e-3,
                               backoff="fixed")),
)

#: Pinned serial plan: the sweep measures fabric hostility, not the
#: pipelining discipline, and the artifacts are byte-pinned (the
#: process-wide campaign --crypto default must not leak in).
_PLAN = CryptoPlan()


def _latency_cells(samples, spec: StatsSpec) -> list:
    """[median ms, ±ms] from per-rep times in seconds."""
    est = estimate(samples, confidence=spec.confidence, seed=spec.seed)
    return [est.median * 1e3, est.halfwidth * 1e3]


def _goodput_cells(byte_counts, samples, spec: StatsSpec) -> list:
    """[KB/s, ±KB/s]: ratio-of-sums center, bootstrap CI of per-rep
    rates (the sound aggregate, per Hunold & Carpen-Amarie)."""
    center = aggregate_rate(byte_counts, samples)
    rates = [b / t for b, t in zip(byte_counts, samples)]
    est = estimate(rates, confidence=spec.confidence, seed=spec.seed)
    return [center / 1e3, est.halfwidth / 1e3]


def hostile() -> Artifact:
    """Library x {wan, iot} x loss x backoff sweep with CI bounds; the
    ``hostile`` registry entry."""
    from repro.workloads.mtlatency import mtlatency_round_time
    from repro.workloads.multipair import multipair_aggregate_throughput
    from repro.workloads.pingpong import pingpong_oneway_time

    spec = StatsSpec(reps=REPS, confidence=CONFIDENCE, seed=0)
    title = (
        f"Encrypted microbenchmarks on hostile fabrics "
        f"({REPS} seeded reps, {int(CONFIDENCE * 100)}% bootstrap CI)"
    )
    table = Table(
        title,
        ["median ms", "±ms", "goodput KB/s", "±KB/s", "n"],
    )
    headlines: dict[str, tuple[float, float | None]] = {}

    # -- section 1: ping-pong, library x fabric x loss x policy --------
    # Means, not medians: backoff discipline only bites on consecutive
    # drops of one message (p = loss^2 per copy), which shifts the tail
    # of the distribution — the median of paired reps usually ties.
    pp_means: dict[tuple[str, str, str, str], float] = {}
    for lib in LIBRARIES:
        for fab_label, fabric in FABRIC_CELLS:
            for loss_label, loss in LOSS_CELLS:
                lossy = replace(fabric, loss=loss)
                for pol_label, policy in POLICY_CELLS:
                    samples = [
                        pingpong_oneway_time(
                            MSG_BYTES, network=net, library=lib,
                            iters=PP_ITERS, crypto=_PLAN,
                            resilience=policy,
                        )
                        for net in rep_networks(lossy, spec)
                    ]
                    lat = _latency_cells(samples, spec)
                    good = _goodput_cells(
                        [MSG_BYTES] * len(samples), samples, spec
                    )
                    table.add_row(
                        f"pp {lib}/{fab_label} loss={loss_label} {pol_label}",
                        lat + good + [len(samples)],
                    )
                    pp_means[(lib, fab_label, loss_label, pol_label)] = (
                        sum(samples) / len(samples)
                    )
    for fab_label, _fabric in FABRIC_CELLS:
        expo = pp_means[("boringssl", fab_label, "8%", "expo")]
        fixed = pp_means[("boringssl", fab_label, "8%", "fixed")]
        headlines[f"pp_{fab_label}_8pct_expo_vs_fixed_x"] = (expo / fixed, None)

    # -- section 2: multipair aggregate goodput, fabric x policy -------
    for fab_label, fabric in FABRIC_CELLS:
        lossy = replace(fabric, loss=LOSS_CELLS[0][1])
        for pol_label, policy in POLICY_CELLS:
            rates = [
                multipair_aggregate_throughput(
                    MSG_BYTES, MP_PAIRS, network=net, library="boringssl",
                    window=MP_WINDOW, iters=MP_ITERS, crypto=_PLAN,
                    resilience=policy,
                )
                for net in rep_networks(lossy, spec)
            ]
            est = estimate(rates, confidence=spec.confidence, seed=spec.seed)
            table.add_row(
                f"mp boringssl/{fab_label} loss=2% {pol_label}",
                ["-", "-", est.median / 1e3, est.halfwidth / 1e3,
                 est.n],
            )

    # -- section 3: multi-threaded latency pattern, fabric x channels --
    mt_policy = POLICY_CELLS[0][1]
    for fab_label, fabric in FABRIC_CELLS:
        lossy = replace(fabric, loss=LOSS_CELLS[0][1])
        for channels in (1, 4):
            samples = [
                mtlatency_round_time(
                    MT_BYTES, channels=channels, network=net,
                    library="boringssl", iters=MT_ITERS, crypto=_PLAN,
                    resilience=mt_policy,
                )
                for net in rep_networks(lossy, spec)
            ]
            lat = _latency_cells(samples, spec)
            table.add_row(
                f"mt boringssl/{fab_label} loss=2% ch={channels}",
                lat + ["-", "-", len(samples)],
            )
            if fab_label == "iot":
                headlines[f"mt_iot_ch{channels}_ms"] = (lat[0], None)

    notes = [
        "fabrics: wan = 15 ms / ~110 MB/s + 10% jitter, 5% wobble; "
        "iot = 40 ms / ~0.45 MB/s + 20% jitter, 10% wobble; loss is "
        "iid per delivery and feeds the FaultPlan/ReliabilityManager "
        "machinery (retransmit, NACK; a message still lost after 6 "
        "retries fails the cell)",
        f"every cell: {REPS} seeded repetitions (fabric seed offset "
        "per rep, shared across cells for paired comparisons); "
        "latency = median with percentile-bootstrap CI, goodput = "
        "ratio-of-sums with a CI bootstrapped from per-rep rates",
        "pp = 1 KiB encrypted ping-pong one-way; mp = 2-pair window "
        "streaming aggregate; mt = osu_latency_mt-style round "
        "(channels concurrent in-flight messages), exponential backoff",
        "paper has no hostile-fabric numbers (ROADMAP item 5 "
        "extension)",
    ]
    return Artifact("hostile", title, table, notes, headlines)

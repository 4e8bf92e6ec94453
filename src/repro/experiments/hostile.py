"""The ``hostile`` experiment: encrypted microbenchmarks on jittery,
lossy WAN/IoT fabrics, reported with bootstrap confidence bounds.

Where the ``resilience`` experiment injected faults on a clean fabric,
this sweep moves the whole link into hostile territory: the ``wan`` and
``iot`` presets (high latency, low bandwidth) with seeded latency
jitter, bandwidth wobble, and iid loss — the regime where the
reliable-delivery layer's retransmissions dominate the numbers instead
of perturbing them.  Three sections share one table, all BoringSSL
under one retransmit policy:

- ``pp``  — encrypted ping-pong, fabric x loss;
- ``mp``  — multipair window streaming (aggregate goodput), fabric;
- ``mt``  — the OMB-Py-style multi-threaded latency pattern
  (:mod:`repro.workloads.mtlatency`), fabric x channels.

The library and the backoff discipline are not axes.  1 KiB of crypto
is microseconds against 15-40 ms of link latency, and the two backoff
schedules diverge only when one message is dropped twice in a row, so
when they were swept Libsodium matched BoringSSL, and fixed backoff
matched exponential, within every cell's CI.  Backoff is studied where
it moves the result: the ``resilience`` experiment's 30% loss row.

Every cell is ``REPS`` seeded repetitions (the fabric seed is offset
per rep — common random numbers across cells, so fabric and loss
comparisons are paired) summarized per ``repro.experiments.stats``:
median + percentile-bootstrap CI for latencies, ratio-of-sums
aggregation for goodput.  Everything is virtual-time and seeded, so
every run renders the committed ``results/hostile.*`` byte for byte —
``make check-artifacts`` pins exactly that.
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

LIBRARY = "boringssl"

#: A message that exhausts its retry budget fails the cell (never a
#: plaintext fallback), and 6 retries suffice even on iot @ 8% loss.
POLICY = ResiliencePolicy(max_retries=6, timeout=5e-3,
                          backoff="exponential", escalation="fail")

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
    """{wan, iot} x loss sweep with CI bounds; the ``hostile`` registry
    entry."""
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

    # -- section 1: ping-pong, fabric x loss ---------------------------
    for fab_label, fabric in FABRIC_CELLS:
        for loss_label, loss in LOSS_CELLS:
            lossy = replace(fabric, loss=loss)
            samples = [
                pingpong_oneway_time(
                    MSG_BYTES, network=net, library=LIBRARY,
                    iters=PP_ITERS, crypto=_PLAN, resilience=POLICY,
                )
                for net in rep_networks(lossy, spec)
            ]
            lat = _latency_cells(samples, spec)
            good = _goodput_cells([MSG_BYTES] * len(samples), samples, spec)
            table.add_row(
                f"pp {LIBRARY}/{fab_label} loss={loss_label}",
                lat + good + [len(samples)],
            )

    # -- section 2: multipair aggregate goodput, fabric ----------------
    for fab_label, fabric in FABRIC_CELLS:
        lossy = replace(fabric, loss=LOSS_CELLS[0][1])
        rates = [
            multipair_aggregate_throughput(
                MSG_BYTES, MP_PAIRS, network=net, library=LIBRARY,
                window=MP_WINDOW, iters=MP_ITERS, crypto=_PLAN,
                resilience=POLICY,
            )
            for net in rep_networks(lossy, spec)
        ]
        est = estimate(rates, confidence=spec.confidence, seed=spec.seed)
        table.add_row(
            f"mp {LIBRARY}/{fab_label} loss=2%",
            ["-", "-", est.median / 1e3, est.halfwidth / 1e3, est.n],
        )

    # -- section 3: multi-threaded latency pattern, fabric x channels --
    for fab_label, fabric in FABRIC_CELLS:
        lossy = replace(fabric, loss=LOSS_CELLS[0][1])
        for channels in (1, 4):
            samples = [
                mtlatency_round_time(
                    MT_BYTES, channels=channels, network=net,
                    library=LIBRARY, iters=MT_ITERS, crypto=_PLAN,
                    resilience=POLICY,
                )
                for net in rep_networks(lossy, spec)
            ]
            lat = _latency_cells(samples, spec)
            table.add_row(
                f"mt {LIBRARY}/{fab_label} loss=2% ch={channels}",
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
        "(channels concurrent in-flight messages); every cell is "
        "BoringSSL with exponential backoff from a 5 ms timeout",
        "no library or backoff axis: at 1 KiB on 15-40 ms links "
        "Libsodium matched BoringSSL and fixed backoff matched "
        "exponential within every cell's CI; the resilience "
        "experiment's 30% loss row is where backoff moves",
        "paper has no hostile-fabric numbers; this extends its "
        "microbenchmarks to WAN/IoT links",
    ]
    return Artifact("hostile", title, table, notes, headlines)

"""The ``predict`` experiment: predicted-vs-simulated validation of the
analytical prediction engine (:mod:`repro.models.predict`).

The engine calibrates on ~190 anchor cells and claims to answer
arbitrary cells analytically.  This experiment holds it to that claim:
it sweeps a validation grid of ~2000 cells the calibration *never ran*
— off-anchor message sizes (8 per octave), pipelined plans with four
different geometries, multipair counts at off-anchor sizes, and faulted
exchanges — simulates every one, and reports the relative error of the
prediction per model family.

Hard gates (AssertionError fails the experiment loudly):

- the grid is at least 10x the anchor set;
- the overall median relative error is at most 10%;
- every prediction carries a confidence bound, and the fraction of
  cells whose simulated value falls inside the predicted bounds is at
  least ``MIN_COVERAGE``.

Everything is deterministic — simulator cells are virtual-time, the
fit is closed-form — so every run renders the committed
``results/predict.*`` byte for byte (pinned by ``make check-artifacts``).
The runner calibrates without the on-disk anchor cache: what it reports
is whatever this run simulated, sanitizer and runtime included, and the
campaign caches the whole artifact.
"""

from __future__ import annotations

from repro.encmpi.plan import CryptoPlan
from repro.experiments.report import Artifact
from repro.models.cpu import parse_cluster_spec
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy
from repro.util.tables import Table

#: ping-pong and multipair both run on the two-node slice
PREDICT_CLUSTER = parse_cluster_spec("2x8")

#: off-anchor size grid: 8 sizes per octave, 512 B .. 4 MiB
SIZE_STEPS_PER_OCTAVE = 8
SIZE_MIN = 512
SIZE_OCTAVES = 13  # 512 B * 2**13 = 4 MiB

#: acceptance gates
MAX_MEDIAN_ERR = 0.10
MIN_GRID_RATIO = 10.0
MIN_COVERAGE = 0.60

#: pipelined plans the calibration never ran (geometry x helper cap),
#: with the size floor above which each is swept
CRYPTMPI_SWEEPS = (
    ("cryptmpi/A", CryptoPlan(mode="cryptmpi", chunk_bytes=64 * 1024),
     64 * 1024, ("openssl", "boringssl", "libsodium", "cryptopp")),
    ("cryptmpi/B", CryptoPlan(mode="cryptmpi", chunk_bytes=256 * 1024,
                              helper_cores=2),
     256 * 1024, ("openssl", "boringssl", "libsodium", "cryptopp")),
    ("cryptmpi/C", CryptoPlan(mode="cryptmpi", chunk_bytes=64 * 1024,
                              helper_cores=0),
     256 * 1024, ("boringssl",)),
    ("cryptmpi/D", CryptoPlan(mode="cryptmpi", chunk_bytes=128 * 1024,
                              helper_cores=3),
     128 * 1024, ("openssl", "libsodium")),
)

MULTIPAIR_SIZES = (32 * 1024, 128 * 1024, 256 * 1024, 512 * 1024,
                   2 * 1024 * 1024)
MULTIPAIR_PAIRS = (2, 3, 4, 5, 6, 7)
MULTIPAIR_LIBS = (None, "openssl", "boringssl", "libsodium", "cryptopp")
MULTIPAIR_WINDOW = 16
MULTIPAIR_ITERS = 2

FAULT_SIZES = (3 * 1024, 24 * 1024, 192 * 1024)
FAULT_RATES = (0.06, 0.10, 0.14, 0.18)
FAULT_BACKOFFS = ("exponential", "fixed")
FAULT_ITERS = 96
FAULT_SEED = 23
FAULT_POLICY = dict(max_retries=6, timeout=2e-4)


def _off_anchor_sizes(anchored: set[int]) -> list[int]:
    """The geometric size grid minus every size calibration simulated."""
    sizes = {
        int(SIZE_MIN * 2 ** (k / SIZE_STEPS_PER_OCTAVE))
        for k in range(SIZE_OCTAVES * SIZE_STEPS_PER_OCTAVE + 1)
    }
    return sorted(sizes - anchored)


def predict_validation() -> Artifact:
    """Sweep the validation grid; the ``predict`` registry entry."""
    # imported lazily: repro.api imports the registry, which imports us
    from repro.models import predict as engine
    from repro.workloads.multipair import multipair_aggregate_throughput
    from repro.workloads.pingpong import pingpong_oneway_time

    model = engine.calibrate(cache_dir=None)
    anchors = engine.anchor_cells()
    anchored_sizes = {c.size for c in anchors if c.kind == "pingpong"}
    sizes = _off_anchor_sizes(anchored_sizes)

    # family -> list of (rel_err, covered)
    families: dict[str, list[tuple[float, bool]]] = {}

    def check(family, fabric, sim, pred, sim_is_rate=False):
        value = pred.goodput if sim_is_rate else pred.latency
        err = abs(value - sim) / sim
        assert pred.confidence > 0.0, "prediction without a confidence bound"
        families.setdefault(f"{family} {fabric}", []).append(
            (err, err <= pred.confidence)
        )

    for fabric in engine.FABRICS:
        for lib in (None,) + engine.PROFILED_LIBRARIES:
            plan = CryptoPlan(library=lib) if lib else None
            for s in sizes:
                sim = pingpong_oneway_time(s, network=fabric, library=lib,
                                           iters=1, crypto=plan)
                pred = model.predict(library=lib, fabric=fabric, size=s)
                check("pingpong/plain" if lib is None else "pingpong/serial",
                      fabric, sim, pred)

        for label, geometry, floor, libs in CRYPTMPI_SWEEPS:
            for lib in libs:
                plan = CryptoPlan(
                    library=lib, mode=geometry.mode,
                    chunk_bytes=geometry.chunk_bytes,
                    helper_cores=geometry.helper_cores,
                )
                for s in (x for x in sizes if x > floor):
                    sim = pingpong_oneway_time(s, network=fabric,
                                               library=lib, iters=1,
                                               crypto=plan)
                    pred = model.predict(library=lib, fabric=fabric,
                                         size=s, plan=plan)
                    check(label, fabric, sim, pred)

        for lib in MULTIPAIR_LIBS:
            plan = CryptoPlan(library=lib) if lib else None
            for s in MULTIPAIR_SIZES:
                for pairs in MULTIPAIR_PAIRS:
                    sim = multipair_aggregate_throughput(
                        s, pairs, network=fabric, library=lib,
                        window=MULTIPAIR_WINDOW, iters=MULTIPAIR_ITERS,
                        crypto=plan,
                    )
                    pred = model.predict(library=lib, fabric=fabric,
                                         size=s, pairs=pairs)
                    check("multipair", fabric, sim, pred, sim_is_rate=True)

        for backoff in FAULT_BACKOFFS:
            policy = ResiliencePolicy(backoff=backoff, **FAULT_POLICY)
            for s in FAULT_SIZES:
                for rate in FAULT_RATES:
                    faults = FaultPlan(drop=rate, seed=FAULT_SEED)
                    sim = pingpong_oneway_time(
                        s, network=fabric, library="boringssl",
                        iters=FAULT_ITERS,
                        crypto=CryptoPlan(library="boringssl"),
                        faults=faults, resilience=policy,
                    )
                    pred = model.predict(library="boringssl", fabric=fabric,
                                         size=s, faults=faults,
                                         resilience=policy)
                    check("faults", fabric, sim, pred)

    all_cells = [e for v in families.values() for e in v]
    grid = len(all_cells)
    ratio = grid / model.anchor_count
    assert ratio >= MIN_GRID_RATIO, (
        f"validation grid ({grid}) is below {MIN_GRID_RATIO}x the anchor "
        f"set ({model.anchor_count})"
    )

    def quantiles(errs):
        v = sorted(errs)
        med = (v[len(v) // 2] if len(v) % 2
               else 0.5 * (v[len(v) // 2 - 1] + v[len(v) // 2]))
        return med, v[min(int(0.9 * len(v)), len(v) - 1)], v[-1]

    title = (
        "Analytical predictor vs simulator on an off-anchor grid "
        f"({grid} cells, {model.anchor_count} anchors)"
    )
    table = Table(
        title, ["cells", "median err %", "p90 err %", "max err %",
                "covered %"],
    )
    for family in sorted(families):
        errs = [e for e, _ in families[family]]
        med, p90, worst = quantiles(errs)
        covered = sum(1 for _, c in families[family] if c)
        table.add_row(
            family,
            [len(errs), 100 * med, 100 * p90, 100 * worst,
             100 * covered / len(errs)],
        )

    med, p90, _ = quantiles([e for e, _ in all_cells])
    coverage = sum(1 for _, c in all_cells if c) / grid
    assert med <= MAX_MEDIAN_ERR, (
        f"median prediction error {med:.1%} exceeds {MAX_MEDIAN_ERR:.0%}"
    )
    assert coverage >= MIN_COVERAGE, (
        f"only {coverage:.1%} of cells fall inside the predicted "
        f"confidence bounds (gate: {MIN_COVERAGE:.0%})"
    )

    headlines = {
        "median_err_pct": (100 * med, None),
        "p90_err_pct": (100 * p90, None),
        "coverage_pct": (100 * coverage, None),
        "grid_cells": (float(grid), None),
        "anchor_cells": (float(model.anchor_count), None),
        "grid_to_anchor_x": (ratio, None),
    }
    notes = [
        f"model digest {model.digest()} (sha256 of the fitted "
        "coefficients; see PredictionModel.token)",
        "every grid size/plan/pair-count combination is off-anchor: the "
        "calibration never simulated it",
        "covered % counts cells whose simulated value falls inside the "
        "prediction's confidence interval latency*(1 +- confidence)",
        "fault cells compare a closed-form expectation against one "
        "seeded realization, so their errors include realization "
        "noise, honestly reported in the faults rows",
        "anchor cells and the validation grid are both simulated fresh "
        "on every run",
    ]
    return Artifact("predict", title, table, notes, headlines)

"""The ``predict`` experiment: the analytical predictor
(:mod:`repro.models.predict`) against the simulator.

The predictor evaluates the simulator's own cost model in closed form,
so it has no anchors to avoid: the grid is the full 8-per-octave size
ladder from 512 B to 4 MiB for plain and serially sealed ping-pong,
four pipelined plans, serial multipair at 2-7 pairs, and faulted
exchanges.  The library sweeps use the paper's three tabulated
libraries: OpenSSL has BoringSSL's calibration (§V drops it for "very
similar performance"), so its cells would repeat BoringSSL's; only
``cryptmpi/D``, which has no BoringSSL twin, sweeps it.  Every cell is
simulated fresh and the relative error of its prediction is reported
per model family.

Hard gates (AssertionError fails the experiment loudly):

- the overall median relative error is at most ``MAX_MEDIAN_ERR``;
- every family but the faults stays within ``MAX_FAMILY_ERR`` in every
  cell: the model is the simulator's arithmetic, so a larger error is
  drift between the two.  Fault cells compare an expectation with one
  seeded realization, so their error is that realization's noise.

Everything is deterministic, so every run renders the committed
``results/predict.*`` byte for byte (pinned by ``make check-artifacts``).
"""

from __future__ import annotations

from repro.encmpi.plan import CryptoPlan
from repro.experiments import paperdata
from repro.experiments.report import Artifact
from repro.models import predict as model
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy
from repro.util.tables import Table
from repro.workloads.multipair import multipair_aggregate_throughput
from repro.workloads.pingpong import pingpong_oneway_time

#: the size grid: 8 sizes per octave, 512 B .. 4 MiB
SIZE_STEPS_PER_OCTAVE = 8
SIZE_MIN = 512
SIZE_OCTAVES = 13  # 512 B * 2**13 = 4 MiB
GRID_SIZES = tuple(sorted({
    int(SIZE_MIN * 2 ** (k / SIZE_STEPS_PER_OCTAVE))
    for k in range(SIZE_OCTAVES * SIZE_STEPS_PER_OCTAVE + 1)
}))

#: acceptance gates
MAX_MEDIAN_ERR = 0.10
MAX_FAMILY_ERR = 0.02

#: pipelined plans (geometry x helper cap), with the size floor above
#: which each is swept
CRYPTMPI_SWEEPS = (
    ("cryptmpi/A", CryptoPlan(mode="cryptmpi", chunk_bytes=64 * 1024),
     64 * 1024, paperdata.LIBS),
    ("cryptmpi/B", CryptoPlan(mode="cryptmpi", chunk_bytes=256 * 1024,
                              helper_cores=2),
     256 * 1024, paperdata.LIBS),
    ("cryptmpi/C", CryptoPlan(mode="cryptmpi", chunk_bytes=64 * 1024,
                              helper_cores=0),
     256 * 1024, ("boringssl",)),
    ("cryptmpi/D", CryptoPlan(mode="cryptmpi", chunk_bytes=128 * 1024,
                              helper_cores=3),
     128 * 1024, ("openssl", "libsodium")),
)

MULTIPAIR_SIZES = (1024, 8 * 1024, 32 * 1024, 128 * 1024, 256 * 1024,
                   512 * 1024, 2 * 1024 * 1024)
MULTIPAIR_PAIRS = (2, 3, 4, 5, 6, 7)
MULTIPAIR_LIBS = (None,) + paperdata.LIBS
MULTIPAIR_ITERS = 2

FAULT_SIZES = (3 * 1024, 24 * 1024, 192 * 1024)
FAULT_RATES = (0.06, 0.10, 0.14, 0.18)
FAULT_BACKOFFS = ("exponential", "fixed")
FAULT_ITERS = 96
FAULT_SEED = 23
FAULT_POLICY = dict(max_retries=6, timeout=2e-4)


def predict_validation() -> Artifact:
    """Sweep the validation grid; the ``predict`` registry entry."""
    families: dict[str, list[float]] = {}

    def check(family, fabric, sim, predicted):
        families.setdefault(f"{family} {fabric}", []).append(
            abs(predicted - sim) / sim
        )

    for fabric in model.FABRICS:
        for lib in (None,) + paperdata.LIBS:
            plan = CryptoPlan(library=lib) if lib else None
            for s in GRID_SIZES:
                sim = pingpong_oneway_time(s, network=fabric, library=lib,
                                           iters=1, crypto=plan)
                pred = model.predict(library=lib, fabric=fabric, size=s)
                check("pingpong/plain" if lib is None else "pingpong/serial",
                      fabric, sim, pred.latency)

        for label, geometry, floor, libs in CRYPTMPI_SWEEPS:
            for lib in libs:
                plan = CryptoPlan(
                    library=lib, mode=geometry.mode,
                    chunk_bytes=geometry.chunk_bytes,
                    helper_cores=geometry.helper_cores,
                )
                for s in (x for x in GRID_SIZES if x > floor):
                    sim = pingpong_oneway_time(s, network=fabric,
                                               library=lib, iters=1,
                                               crypto=plan)
                    pred = model.predict(library=lib, fabric=fabric,
                                         size=s, plan=plan)
                    check(label, fabric, sim, pred.latency)

        for lib in MULTIPAIR_LIBS:
            plan = CryptoPlan(library=lib) if lib else None
            for s in MULTIPAIR_SIZES:
                for pairs in MULTIPAIR_PAIRS:
                    sim = multipair_aggregate_throughput(
                        s, pairs, network=fabric, library=lib,
                        window=model.MULTIPAIR_WINDOW,
                        iters=MULTIPAIR_ITERS, crypto=plan,
                    )
                    pred = model.predict(library=lib, fabric=fabric,
                                         size=s, pairs=pairs)
                    check("multipair", fabric, sim, pred.goodput)

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
                    check("faults", fabric, sim, pred.latency)

    all_errs = [e for errs in families.values() for e in errs]

    def quantiles(errs):
        v = sorted(errs)
        med = (v[len(v) // 2] if len(v) % 2
               else 0.5 * (v[len(v) // 2 - 1] + v[len(v) // 2]))
        return med, v[min(int(0.9 * len(v)), len(v) - 1)], v[-1]

    title = f"Analytical predictor vs simulator ({len(all_errs)} cells)"
    table = Table(title, ["cells", "median err %", "p90 err %", "max err %"])
    for family in sorted(families):
        errs = families[family]
        med, p90, worst = quantiles(errs)
        table.add_row(family, [len(errs), 100 * med, 100 * p90, 100 * worst])
        assert family.startswith("faults") or worst <= MAX_FAMILY_ERR, (
            f"{family}: max prediction error {worst:.2%} exceeds "
            f"{MAX_FAMILY_ERR:.0%}"
        )

    med, p90, _ = quantiles(all_errs)
    assert med <= MAX_MEDIAN_ERR, (
        f"median prediction error {med:.1%} exceeds {MAX_MEDIAN_ERR:.0%}"
    )

    headlines = {
        "median_err_pct": (100 * med, None),
        "p90_err_pct": (100 * p90, None),
        "grid_cells": (float(len(all_errs)), None),
    }
    notes = [
        "the model is the simulator's cost model evaluated in closed "
        "form: nothing is fitted, and no cell is held out",
        f"gates: overall median error <= {MAX_MEDIAN_ERR:.0%}; every "
        f"non-fault family's max error <= {MAX_FAMILY_ERR:.0%}",
        "fault cells compare a closed-form expectation against one "
        "seeded realization, so their errors include realization "
        "noise, honestly reported in the faults rows",
        "every grid cell is simulated fresh on every run",
    ]
    return Artifact("predict", title, table, notes, headlines)

"""Physical-sanity properties of the prediction engine.

The model must behave like the machine it summarizes, for every
profiled backend and sealing mode on both fabrics:

- latency never decreases as the injected fault rate grows;
- on a shared NIC, per-pair goodput never increases as pairs are added.

``pairs == 1`` answers the solitary ping-pong benchmark and
``pairs >= 2`` the multipair streaming benchmark — two different
measurements with an expected jump between them — so the goodput
property is asserted over the streaming regime (2..8 pairs).
"""

import pytest

from repro.encmpi.plan import CryptoPlan
from repro.models.cryptolib import PROFILED_LIBRARIES
from repro.models.predict import CORES_PER_NODE, FABRICS, predict
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy

KIB = 1024
MIB = 1024 * KIB

#: every (library, plan) combination the engine models: the plaintext
#: baseline, serial sealing per library, and pipelined sealing per
#: library in two geometries
MODES = [(None, None)]
MODES += [(lib, CryptoPlan(library=lib)) for lib in PROFILED_LIBRARIES]
MODES += [(lib, CryptoPlan(library=lib, mode="cryptmpi",
                           chunk_bytes=64 * KIB))
          for lib in PROFILED_LIBRARIES]
MODES += [(lib, CryptoPlan(library=lib, mode="cryptmpi",
                           chunk_bytes=256 * KIB, helper_cores=2))
          for lib in PROFILED_LIBRARIES]

MODE_IDS = ["plain" if lib is None else f"{plan.mode}-{lib}-{plan.chunk_bytes}"
            for lib, plan in MODES]

POLICY = ResiliencePolicy(max_retries=8, timeout=2e-4,
                          escalation="plain_fallback")


@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("lib,plan", MODES, ids=MODE_IDS)
def test_latency_nondecreasing_in_fault_rate(fabric, lib, plan):
    rates = (0.0, 0.02, 0.06, 0.12, 0.2, 0.3)
    for size in (4 * KIB, 512 * KIB):
        latencies = []
        for rate in rates:
            faults = FaultPlan(drop=rate) if rate else None
            resilience = POLICY if rate else None
            latencies.append(
                predict(
                    library=lib, fabric=fabric, size=size, plan=plan,
                    faults=faults, resilience=resilience,
                ).latency
            )
        for lo, hi in zip(latencies, latencies[1:]):
            assert hi >= lo * (1.0 - 1e-12)


@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("lib", (None,) + PROFILED_LIBRARIES,
                         ids=["plain"] + list(PROFILED_LIBRARIES))
def test_per_pair_goodput_nonincreasing_in_pairs(fabric, lib):
    # Max-min-fair sharing of one NIC: adding pairs can only dilute
    # each pair's slice (aggregate may still grow until saturation).
    for size in (16 * KIB, 64 * KIB, 2 * MIB):
        per_pair = [
            predict(library=lib, fabric=fabric, size=size,
                    pairs=p).per_pair_goodput
            for p in range(2, CORES_PER_NODE + 1)
        ]
        for lo, hi in zip(per_pair[1:], per_pair):
            assert lo <= hi * (1.0 + 1e-12)


def test_predict_rejects_bad_queries():
    with pytest.raises(ValueError, match="profiled"):
        predict(library="rustls")
    with pytest.raises(ValueError, match="pairs"):
        predict(pairs=CORES_PER_NODE + 1)
    with pytest.raises(ValueError, match="size"):
        predict(size=0)
    with pytest.raises(ValueError, match="needs a library"):
        predict(plan=CryptoPlan(mode="cryptmpi"))
    with pytest.raises(ValueError, match="resilience"):
        predict(library="openssl", faults=FaultPlan(drop=0.1))

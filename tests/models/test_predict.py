"""The analytical predictor against fresh simulations, its refusals,
and its answered fabric domain.

The predictor evaluates the simulator's own cost model, so ping-pong
predictions equal the simulated one-way time to rounding, for every
sealing mode, chunk size and helper cap; serial multipair lands within
2% of the simulated aggregate.
"""

import pytest

from repro.encmpi.plan import CryptoPlan
from repro.models.network import FabricSpec
from repro.models.predict import (
    FABRICS,
    MULTIPAIR_WINDOW,
    explain_pingpong,
    predict,
)
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy
from repro.util.units import KiB, MiB
from repro.workloads.multipair import multipair_aggregate_throughput
from repro.workloads.pingpong import pingpong_oneway_time

# ------------------------------------------------------------ exactness

#: 1-16 B (where the calibrated one-way time falls as the size grows),
#: the eager thresholds and the flow cutoff, every chunk size below,
#: at and one byte past each chunk, up to 4 MiB
SIZES = (1, 2, 3, 5, 8, 15, 16, 17, 1000, 2047, 2048, 8 * KiB, 16 * KiB,
         16 * KiB + 1, 40 * KiB, 64 * KiB, 64 * KiB + 1, 100_000,
         256 * KiB, 256 * KiB + 1, 700_000, MiB, 4 * MiB)

#: plain, serial, and cryptmpi over chunk size x helper cap
MODES = [(None, None), ("boringssl", CryptoPlan(library="boringssl")),
         ("cryptopp", CryptoPlan(library="cryptopp"))]
MODE_IDS = ["plain", "serial-boringssl", "serial-cryptopp"]
for chunk in (16 * KiB, 64 * KiB, 256 * KiB):
    for cores in (None, 0, 2):
        MODES.append(("libsodium", CryptoPlan(mode="cryptmpi",
                                              chunk_bytes=chunk,
                                              helper_cores=cores)))
        MODE_IDS.append(f"cryptmpi-{chunk // KiB}k-cores{cores}")


@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("lib,plan", MODES, ids=MODE_IDS)
def test_pingpong_prediction_equals_simulation(fabric, lib, plan):
    for size in SIZES:
        sim = pingpong_oneway_time(size, network=fabric, library=lib,
                                   iters=1, crypto=plan)
        got = predict(library=lib, fabric=fabric, size=size,
                      plan=plan).latency
        assert got == pytest.approx(sim, rel=1e-9), (size, sim, got)


def test_model_agrees_with_simulator():
    """The paper's additive estimate is the simulated serial ping-pong
    (§V-A: encryption + the sealed frame's communication + decryption)."""
    for network in ("ethernet", "infiniband"):
        for size in (256, 16 * KiB, 2 * MiB):
            model = explain_pingpong(network, "libsodium", size).total_seconds
            sim = pingpong_oneway_time(size, network=network, library="libsodium")
            assert sim == pytest.approx(model, rel=1e-9), (network, size)


@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("lib", (None, "boringssl", "cryptopp"),
                         ids=("plain", "boringssl", "cryptopp"))
def test_multipair_prediction_within_two_percent(fabric, lib):
    plan = CryptoPlan(library=lib) if lib else None
    for size in (KiB, 8 * KiB, 64 * KiB, 2 * MiB):
        for pairs in (2, 4, 7):
            sim = multipair_aggregate_throughput(
                size, pairs, network=fabric, library=lib,
                window=MULTIPAIR_WINDOW, iters=2, crypto=plan)
            got = predict(library=lib, fabric=fabric, size=size,
                          pairs=pairs).goodput
            assert got == pytest.approx(sim, rel=0.02), (size, pairs)


# ------------------------------------------------------------- refusals

def test_multipair_with_a_pipelined_plan_is_refused():
    with pytest.raises(ValueError, match="pipelined plan .* helper cores"):
        predict(library="cryptopp", fabric="infiniband", size=2 * MiB,
                pairs=7, plan=CryptoPlan(mode="cryptmpi"))


def test_multipair_with_faults_is_refused():
    with pytest.raises(ValueError, match="multipair with faults"):
        predict(library="boringssl", size=24 * KiB, pairs=4,
                faults=FaultPlan(drop=0.14, seed=23),
                resilience=ResiliencePolicy(max_retries=6, timeout=2e-4))


# ------------------------------------------------------- answered domain

DOMAIN = "calibrated for the noise-free fabrics ethernet, infiniband"


@pytest.mark.parametrize("fabric, base", [
    ("ethernet", "ethernet"),
    ("eth", "ethernet"),
    (FabricSpec(base="ethernet"), "ethernet"),
    ("infiniband:seed=7", "infiniband"),
])
def test_predict_answers_for_clean_calibrated_fabrics(fabric, base):
    got = predict(library="openssl", fabric=fabric, size=64 * 1024)
    assert got == predict(library="openssl", fabric=base, size=64 * 1024)


@pytest.mark.parametrize("fabric, reason", [
    ("ethernet:jitter=20%", "has jitter, wobble or loss"),
    (FabricSpec(base="infiniband", wobble=0.1), "has jitter, wobble or loss"),
    ("ethernet:loss=1%", "has jitter, wobble or loss"),
    ("wan", "model not calibrated for fabric 'wan'"),
    ("token-ring", "unknown fabric 'token-ring'"),
])
def test_predict_refuses_fabrics_outside_the_calibrated_domain(fabric,
                                                                reason):
    with pytest.raises(ValueError, match=reason) as info:
        predict(library="openssl", fabric=fabric, size=64 * 1024)
    assert DOMAIN in str(info.value)

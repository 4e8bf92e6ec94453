"""Ping-pong workload tests against the paper's Tables I/V anchors."""

import pytest

from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy
from repro.util.units import KiB, MiB
from repro.workloads import mtlatency, multipair, pingpong
from repro.workloads.nas import common as nas_common
from repro.workloads.pingpong import pingpong_oneway_time, pingpong_throughput


def test_baseline_matches_table1_anchors():
    for size, mbps in ((1, 0.050), (16, 0.83), (256, 7.01), (1 * KiB, 17.03)):
        got = pingpong_throughput(size, network="ethernet") / 1e6
        assert got == pytest.approx(mbps, rel=0.02), size


def test_baseline_matches_table5_anchors():
    for size, mbps in ((1, 0.57), (256, 82.34), (1 * KiB, 272.84)):
        got = pingpong_throughput(size, network="infiniband") / 1e6
        assert got == pytest.approx(mbps, rel=0.02), size


def test_encrypted_2mb_overhead_ethernet():
    """§V-A headline: BoringSSL 78.3% at 2 MB on Ethernet."""
    base = pingpong_oneway_time(2 * MiB, network="ethernet")
    enc = pingpong_oneway_time(2 * MiB, network="ethernet", library="boringssl")
    overhead = (enc - base) / base * 100
    assert overhead == pytest.approx(78.3, abs=8)


def test_encrypted_2mb_overhead_infiniband():
    """§V-B headline: BoringSSL 215.2% at 2 MB on InfiniBand."""
    base = pingpong_oneway_time(2 * MiB, network="infiniband")
    enc = pingpong_oneway_time(2 * MiB, network="infiniband", library="boringssl")
    overhead = (enc - base) / base * 100
    assert overhead == pytest.approx(215.2, abs=20)


def test_small_messages_have_small_overhead_on_ethernet():
    """§V-A: ~6% overhead at 256 B for the fast libraries on Ethernet."""
    base = pingpong_oneway_time(256, network="ethernet")
    enc = pingpong_oneway_time(256, network="ethernet", library="libsodium")
    overhead = (enc - base) / base * 100
    assert overhead < 15


def test_library_ranking_at_2mb():
    ts = {
        lib: pingpong_throughput(2 * MiB, network="ethernet", library=lib)
        for lib in ("boringssl", "libsodium", "cryptopp")
    }
    assert ts["boringssl"] > ts["libsodium"] > ts["cryptopp"]


def test_key128_at_least_as_fast_as_256():
    t256 = pingpong_oneway_time(1 * MiB, library="boringssl", key_bits=256)
    t128 = pingpong_oneway_time(1 * MiB, library="boringssl", key_bits=128)
    assert t128 <= t256


def test_validation():
    with pytest.raises(ValueError):
        pingpong_oneway_time(-1)
    with pytest.raises(ValueError):
        pingpong_oneway_time(16, iters=0)


# -- fault plans under modeled byte work -------------------------------------

#: the retry policy of the corrupted ping-pong below
POLICY = ResiliencePolicy(max_retries=6, timeout=2e-4)


def test_encrypted_pingpong_refuses_a_corrupting_fault_plan():
    """Modeled byte work never authenticates a frame, so a corrupting
    plan used to read as fault-free (63.518 µs either way); it is now
    refused, and the same call without corruption reads as before."""
    with pytest.raises(ValueError, match="modeled byte work"):
        pingpong_oneway_time(1024, library="boringssl", iters=20,
                             faults=FaultPlan(corrupt=0.3, seed=3),
                             resilience=POLICY)
    clean = pingpong_oneway_time(1024, library="boringssl", iters=20,
                                 faults=FaultPlan(corrupt=0.0, seed=3),
                                 resilience=POLICY)
    assert clean.hex() == "0x1.0a69ba3368c72p-14"


@pytest.mark.parametrize("module, run", [
    (pingpong, lambda **kw: pingpong.pingpong_oneway_time(64, **kw)),
    (multipair, lambda **kw: multipair.multipair_aggregate_throughput(
        64, 2, **kw)),
    (mtlatency, lambda **kw: mtlatency.mtlatency_round_time(64, **kw)),
    (nas_common, lambda **kw: nas_common.run_nas("ep", **kw)),
], ids=["pingpong", "multipair", "mtlatency", "nas"])
def test_encrypted_entry_points_refuse_corruption_before_any_rank_runs(
        monkeypatch, module, run):
    """Every encrypted workload entry point refuses a corrupting plan
    before it starts a job; plain runs keep the plan."""

    def no_job(*_args, **_kwargs):
        raise AssertionError("a job started")

    monkeypatch.setattr(module, "run_program", no_job)
    with pytest.raises(ValueError, match="modeled byte work"):
        run(library="openssl", faults=FaultPlan(drop=0.1, corrupt=0.01),
            resilience=POLICY)
    with pytest.raises(AssertionError, match="a job started"):
        run(library=None, faults=FaultPlan(drop=0.1, corrupt=0.01),
            resilience=POLICY)
    with pytest.raises(AssertionError, match="a job started"):
        run(library="openssl", faults=FaultPlan(drop=0.1),
            resilience=POLICY)

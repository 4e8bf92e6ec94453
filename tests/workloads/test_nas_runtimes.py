"""NAS skeletons as generator rank programs: their ``run_nas`` totals
are pinned bit-for-bit on both engine runtimes, and a clean baseline
cell shares one simulation with the calibration of encrypted cells."""

import inspect

import pytest

from repro.defaults import job_defaults
from repro.des.options import EngineOptions
from repro.encmpi import CryptoPlan
from repro.experiments import resilience
from repro.models.cpu import ClusterSpec
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy
from repro.workloads.nas import NAS_BENCHMARKS, common, get_benchmark, run_nas

SMALL = ClusterSpec(nodes=2, cores_per_node=4)

VARIANTS = {
    "plain": {},
    "boringssl": {"library": "boringssl"},
    "cryptmpi": {"library": "boringssl", "crypto": CryptoPlan(mode="cryptmpi")},
    "faults": {
        "library": "boringssl",
        "faults": FaultPlan(drop=0.02, seed=11),
        "resilience": ResiliencePolicy(max_retries=6),
    },
}

#: (benchmark, variant) -> (total_seconds, comm_seconds) as float.hex,
#: recorded from the blocking-API skeletons (thread runtime) that the
#: generator skeletons replaced; 8 ranks on SMALL
PIN = {
    ("bt", "plain"): ("0x1.a86741243673ap+3", "0x1.a86741243673ap+2"),
    ("bt", "boringssl"): ("0x1.a1124540b03fap+4", "0x1.36f874f7a2a2cp+4"),
    ("cg", "plain"): ("0x1.8c71cba90a72dp+0", "0x1.8c71cba90a72dp-1"),
    ("cg", "boringssl"): ("0x1.a4f2ec5dd7ab8p+2", "0x1.7364b2e8b65d2p+2"),
    ("ep", "plain"): ("0x1.ddbf8b7073eb2p-13", "0x1.ddbf8b7073eb2p-14"),
    ("ep", "boringssl"): ("0x1.0aaab58cfad94p-12", "0x1.2675a561bbbcep-13"),
    ("ft", "plain"): ("0x1.40fd7e9793aeap+4", "0x1.40fd7e9793aeap+3"),
    ("ft", "boringssl"): ("0x1.f10581f738fedp+4", "0x1.5086c2ab6f278p+4"),
    ("is", "plain"): ("0x1.41418bea41145p+1", "0x1.41418bea41145p+0"),
    ("is", "boringssl"): ("0x1.f1558e3483cbap+1", "0x1.50b4c83f63418p+1"),
    ("lu", "plain"): ("0x1.13a473a10838bp+2", "0x1.13a473a10838bp+1"),
    ("lu", "boringssl"): ("0x1.b8fbf015c10d8p+2", "0x1.2f29b6453cf12p+2"),
    ("mg", "plain"): ("0x1.06dcbc4efe950p+0", "0x1.06dcbc4efe950p-1"),
    ("mg", "boringssl"): ("0x1.fc4a89e3c94d6p+0", "0x1.78dc2bbc4a02ep+0"),
    ("sp", "plain"): ("0x1.a7adb975cd756p+3", "0x1.a7adb975cd756p+2"),
    ("sp", "boringssl"): ("0x1.8e373910e6846p+4", "0x1.244bcab373271p+4"),
    ("cg", "cryptmpi"): ("0x1.774f5b591f407p+2", "0x1.45c121e3fdf21p+2"),
    ("ft", "cryptmpi"): ("0x1.f10581f738fedp+4", "0x1.5086c2ab6f278p+4"),
    ("cg", "faults"): ("0x1.fa4a6920919adp+2", "0x1.c8bc2fab704c7p+2"),
}


@pytest.fixture
def fresh_memo(monkeypatch):
    monkeypatch.setattr(common, "_comm_time_cache", {})


@pytest.mark.parametrize("runtime", ["threads", "coroutines"])
def test_run_nas_totals_pinned_on_both_runtimes(runtime, fresh_memo):
    got = {}
    with job_defaults(engine=EngineOptions(runtime=runtime)):
        for name, variant in PIN:
            res = run_nas(name, nranks=8, cluster=SMALL, **VARIANTS[variant])
            got[name, variant] = (res.total_seconds.hex(),
                                  res.comm_seconds.hex())
    assert got == PIN


def test_baseline_cell_shares_the_calibration_simulation(fresh_memo,
                                                         monkeypatch):
    calls = []
    simulate = common._simulate_comm_time

    def spy(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(common, "_simulate_comm_time", spy)
    base = run_nas("cg", nranks=8, cluster=SMALL)
    enc = run_nas("cg", nranks=8, cluster=SMALL, library="boringssl")
    # one baseline simulation serves the baseline cell and the encrypted
    # cell's compute calibration; one more for the encrypted traffic
    assert len(calls) == 2
    assert base.total_seconds.hex() == PIN["cg", "plain"][0]
    assert enc.total_seconds.hex() == PIN["cg", "boringssl"][0]


def test_rank_programs_are_generator_functions():
    for name in NAS_BENCHMARKS():
        assert inspect.isgeneratorfunction(get_benchmark(name).skeleton), name
    assert inspect.isgeneratorfunction(common.co_allreduce_bytes)
    assert inspect.isgeneratorfunction(resilience._pingpong)

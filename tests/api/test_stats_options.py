"""StatsSpec through the facade: samples and CIs, spec strings,
repetition determinism, and sweep/parallel replay."""

import pytest

from repro import api
from repro.experiments.stats import StatsSpec
from repro.models.cpu import ClusterSpec
from repro.models.network import FabricSpec
from repro.simmpi.resilience import ResiliencePolicy
from repro.simmpi.tracing import TraceRecorder

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)
TAG_EXCHANGE = 3
NOISY = FabricSpec(base="wan", jitter=0.1, wobble=0.05, loss=0.02, seed=7)
POLICY = ResiliencePolicy(max_retries=6, timeout=5e-3,
                          escalation="plain_fallback")


def _exchange_many(ctx):
    for i in range(6):
        if ctx.rank == 0:
            ctx.comm.send(bytes([i]) * 128, 1, tag=TAG_EXCHANGE)
            ctx.comm.recv(1, TAG_EXCHANGE)
        else:
            ctx.comm.recv(0, TAG_EXCHANGE)
            ctx.comm.send(bytes([i]) * 128, 0, tag=TAG_EXCHANGE)
    return ctx.now


def _noisy_job(**kwargs):
    return api.run_job(
        _exchange_many, nranks=2, cluster=CLUSTER, network=NOISY,
        resilience=POLICY, **kwargs,
    )


def test_stats_attaches_samples_and_ci():
    job = _noisy_job(stats=StatsSpec(reps=5))
    assert job.stats is not None
    assert job.stats.metric == "duration"
    assert len(job.stats.samples) == 5
    est = job.stats.estimate
    assert est.lo <= est.median <= est.hi
    # the jittered fabric actually varies across the seeded reps
    assert len(set(job.stats.samples)) > 1
    # repetition 0 is the result the rest of the JobResult reports
    assert job.duration == job.stats.samples[0]


def test_stats_spec_string_accepted():
    a = _noisy_job(stats="reps=3,confidence=90%")
    b = _noisy_job(stats=StatsSpec(reps=3, confidence=0.9))
    assert a.stats == b.stats


def test_repetitions_are_byte_deterministic():
    a = _noisy_job(stats=StatsSpec(reps=4))
    b = _noisy_job(stats=StatsSpec(reps=4))
    assert a.stats.samples == b.stats.samples
    assert a.stats.estimate == b.stats.estimate
    # a different master seed draws a different noise sequence
    shifted = _noisy_job(stats=StatsSpec(reps=4, seed=99))
    assert shifted.stats.samples != a.stats.samples


def test_clean_fabric_reps_are_identical_samples():
    job = api.run_job(
        _exchange_many, nranks=2, cluster=CLUSTER, network="ethernet",
        stats=StatsSpec(reps=3),
    )
    assert len(set(job.stats.samples)) == 1
    assert job.stats.estimate.halfwidth == 0.0


def test_shared_trace_recorder_rejected_across_reps():
    with pytest.raises(RuntimeError, match="TraceRecorder"):
        api.run_job(
            _exchange_many, nranks=2, cluster=CLUSTER, network=NOISY,
            resilience=POLICY, trace=TraceRecorder(),
            stats=StatsSpec(reps=2),
        )


def test_sweep_cells_get_independent_but_identical_rep_streams():
    points = api.sweep(
        _exchange_many, nranks=2, cluster=CLUSTER,
        networks=(NOISY, "ethernet"),
        resilience=POLICY, stats=StatsSpec(reps=3),
    )
    assert [p.network for p in points] == [NOISY.token(), "ethernet"]
    noisy_point, clean_point = points
    assert len(noisy_point.result.stats.samples) == 3
    # and the whole sweep replays byte-identically
    again = api.sweep(
        _exchange_many, nranks=2, cluster=CLUSTER,
        networks=(NOISY, "ethernet"),
        resilience=POLICY, stats=StatsSpec(reps=3),
    )
    assert [p.result.stats for p in again] == [p.result.stats for p in points]


def test_parallel_sweep_matches_serial():
    serial = api.sweep(
        _exchange_many, nranks=2, cluster=CLUSTER,
        networks=(NOISY, FabricSpec(base="iot", jitter=0.2, seed=3)),
        resilience=POLICY, stats=StatsSpec(reps=3),
    )
    threaded = api.sweep(
        _exchange_many, nranks=2, cluster=CLUSTER,
        networks=(NOISY, FabricSpec(base="iot", jitter=0.2, seed=3)),
        resilience=POLICY, stats=StatsSpec(reps=3), parallel=2,
    )
    assert [p.result.stats for p in threaded] == \
        [p.result.stats for p in serial]
    assert [p.result.duration for p in threaded] == \
        [p.result.duration for p in serial]

"""The facade's run settings: one keyword each, checked up front.

``run_job`` and ``sweep`` take every run setting as exactly one
keyword; a mistyped value raises before any rank runs, and the removed
spellings (``options=``, ``fault_injector=``, ``runtime=``,
``repetitions=``) are plain ``TypeError``s.  Custom fault policies live
one layer down, on ``run_program(fault_injector=...)``.
"""

import warnings

import pytest

from repro import api
from repro.models.cpu import ClusterSpec
from repro.simmpi.faults import FaultAction, FaultInjector, FaultPlan, target_route
from repro.simmpi.resilience import ResiliencePolicy

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)
TAG_EXCHANGE = 3
PLAN = FaultPlan(drop=0.25, seed=5)
POLICY = ResiliencePolicy(max_retries=4, timeout=1e-3)


def _workload(ctx):
    if ctx.rank == 0:
        ctx.comm.send(b"\x11" * 256, 1, tag=TAG_EXCHANGE)
        return ctx.now
    data, _status = ctx.comm.recv(0, TAG_EXCHANGE)
    return (ctx.now, data)


def _exchange_many(ctx):
    for i in range(6):
        if ctx.rank == 0:
            ctx.comm.send(bytes([i]) * 128, 1, tag=TAG_EXCHANGE)
            ctx.comm.recv(1, TAG_EXCHANGE)
        else:
            ctx.comm.recv(0, TAG_EXCHANGE)
            ctx.comm.send(bytes([i]) * 128, 0, tag=TAG_EXCHANGE)
    return ctx.now


def test_fault_plan_accepted_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        job = api.run_job(
            _exchange_many, nranks=2, cluster=CLUSTER,
            faults=PLAN, resilience=POLICY,
        )
    assert job.resilience.gave_up == 0


@pytest.mark.parametrize("keyword, value", [
    ("options", None),
    ("fault_injector", FaultInjector(target_route(0, 1, FaultAction.DROP))),
    ("runtime", "coroutines"),
    ("repetitions", 3),
])
def test_removed_keywords_are_type_errors(keyword, value):
    for entry in (api.run_job, api.sweep):
        with pytest.raises(TypeError, match=keyword):
            entry(_workload, nranks=2, cluster=CLUSTER, **{keyword: value})
    assert not hasattr(api, "RunOptions")
    assert not hasattr(api, "FaultInjector")


def test_mistyped_settings_raise_before_any_rank_runs():
    ran = []

    def spy(ctx):
        ran.append(ctx.rank)

    injector = FaultInjector(target_route(0, 1, FaultAction.DROP))
    for kwargs, error, match in (
        (dict(faults=injector), TypeError, "run_program"),
        (dict(faults="drop=0.1"), TypeError, "FaultPlan"),
        (dict(resilience="retries=3"), TypeError, "resilience"),
        (dict(cluster="2x8"), TypeError, "ClusterSpec"),
        (dict(engine=8), TypeError, "engine"),
        (dict(stats=3), TypeError, "stats"),
        (dict(trace="evnts"), TypeError, "trace"),
    ):
        for entry in (api.run_job, api.sweep):
            with pytest.raises(error, match=match):
                entry(spy, nranks=2, **{"cluster": CLUSTER, **kwargs})
    assert ran == []


def test_sweep_builds_fresh_injector_per_cell():
    # A plan parameterizes every cell; each build gets its own RNG
    # stream, so both networks see the identical fault sequence.
    points = api.sweep(
        _exchange_many,
        nranks=2,
        networks=("ethernet", "infiniband"),
        cluster=CLUSTER,
        faults=PLAN,
        resilience=POLICY,
    )
    assert len(points) == 2
    retx = [p.result.resilience.retransmits for p in points]
    assert retx[0] == retx[1] > 0


def test_cluster_shape_changes_the_simulation():
    """The spec is load-bearing: intra-node vs cross-node placement of
    the same two ranks must produce different timings."""
    one_node = api.run_job(
        _exchange_many, nranks=2,
        cluster=ClusterSpec(nodes=1, cores_per_node=2),
    )
    two_nodes = api.run_job(
        _exchange_many, nranks=2,
        cluster=ClusterSpec(nodes=2, cores_per_node=2),
    )
    assert one_node.duration != two_nodes.duration

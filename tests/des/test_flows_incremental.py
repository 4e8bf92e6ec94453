"""Differential tests: the incremental max-min solver vs exact refill.

``FlowNetwork(exact=True)`` seeds every rebalance with *all* classes
(the historical behavior); the default incremental network re-fills
only the dirty connected components.  The two must agree **bit for bit** on
every completion time for any schedule — that is the contract the
incremental solver's component argument makes, and what lets fig6 run
2.6x faster without regenerating a single golden.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.flows import Capacity, FlowNetwork
from repro.des.process import Scheduler


def _random_schedule(seed: int, nflows: int = 40, ncaps: int = 5):
    """A deterministic random workload: (start, size, rate_cap, cap_ids)."""
    rng = random.Random(seed)
    caps = [round(rng.uniform(0.5, 2.0) * 1e9, 3) for _ in range(ncaps)]
    flows = []
    for _ in range(nflows):
        start = round(rng.uniform(0.0, 0.01), 6)
        size = round(rng.uniform(1e3, 5e6), 3)
        rate_cap = round(rng.uniform(0.1, 1.5) * 1e9, 3)
        picks = rng.sample(range(ncaps), rng.randint(1, min(3, ncaps)))
        flows.append((start, size, rate_cap, tuple(picks)))
    return caps, flows


def _alltoall_schedule(nodes: int = 4, per_node: int = 4):
    """Every rank streams to every rank on another node, through the
    sender's egress, the receiver's ingress and a per-pair stream
    capacity of one limit, with staggered starts; some pairs carry a
    second message size.  Returns (limits, flows, pair capacity ids)."""
    limits = [1.25e9] * (2 * nodes)  # egress of node n is n, ingress n + nodes
    flows = []
    nranks = nodes * per_node
    for src in range(nranks):
        for dst in range(nranks):
            if src // per_node == dst // per_node:
                continue
            pair = len(limits)
            limits.append(1e9)
            picks = (src // per_node, nodes + dst // per_node, pair)
            start = src * 1e-5 + (dst % per_node) * 3e-6
            flows.append((start, 64 * 1024, 1.1e9, picks))
            if (src + dst) % 5 == 0:
                flows.append((start + 2e-5, 256 * 1024, 1.2e9, picks))
    return limits, flows, range(2 * nodes, len(limits))


def _run_schedule(caps_limits, flow_specs, *, exact: bool,
                  pairs=()) -> list[float]:
    """Drive one schedule through a FlowNetwork; returns completion
    times.  Capacity ids in *pairs* are per-pair stream capacities."""
    sched = Scheduler()
    net = FlowNetwork(sched, exact=exact)
    caps = [Capacity(f"c{i}", limit, pair=i in pairs)
            for i, limit in enumerate(caps_limits)]
    finish: list[float] = [None] * len(flow_specs)

    def start_flow(i, size, rate_cap, picks):
        done = net.transfer(size, rate_cap, [caps[c] for c in picks])
        done.callbacks.append(lambda _ev, i=i: finish.__setitem__(i, sched.now))

    for i, (start, size, rate_cap, picks) in enumerate(flow_specs):
        sched.engine.schedule(start, start_flow, i, size, rate_cap, picks)
    sched.run()
    assert all(t is not None for t in finish), "a flow never completed"
    return finish


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_incremental_matches_exact_bit_for_bit(seed):
    caps, flows = _random_schedule(seed)
    exact = _run_schedule(caps, flows, exact=True)
    incremental = _run_schedule(caps, flows, exact=False)
    # == on floats, not approx: the component refill must reproduce the
    # exact solver's arithmetic, not merely be close to it
    assert incremental == exact


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       nflows=st.integers(min_value=1, max_value=25),
       ncaps=st.integers(min_value=1, max_value=4))
def test_incremental_matches_exact_property(seed, nflows, ncaps):
    caps, flows = _random_schedule(seed, nflows=nflows, ncaps=ncaps)
    assert _run_schedule(caps, flows, exact=False) == \
        _run_schedule(caps, flows, exact=True)


def test_symmetric_alltoall_incremental_matches_exact():
    """Classes of many bundles (one per node pair and rate cap), pair
    capacities turning shared and back, and ties at equal completion
    times: both modes still agree bit for bit."""
    limits, flows, pairs = _alltoall_schedule()
    exact = _run_schedule(limits, flows, exact=True, pairs=pairs)
    assert _run_schedule(limits, flows, exact=False, pairs=pairs) == exact
    # the NICs are contended: some streams run below their own caps
    assert any(t > start + size / min(rate_cap, 1e9)
               for t, (start, size, rate_cap, _) in zip(exact, flows))


def test_disjoint_components_do_not_disturb_each_other():
    """A flow arriving on capacity B must not re-anchor flows on A."""
    sched = Scheduler()
    net = FlowNetwork(sched)
    cap_a = Capacity("a", 1e9)
    cap_b = Capacity("b", 1e9)
    times = {}

    def record(name):
        return lambda _ev: times.__setitem__(name, sched.now)

    net.transfer(1e6, 2e9, [cap_a]).callbacks.append(record("a"))
    # arrives strictly later, on an unrelated capacity
    sched.engine.schedule(
        1e-4,
        lambda: net.transfer(1e6, 2e9, [cap_b]).callbacks.append(record("b")),
    )
    sched.run()
    assert times["a"] == 1e6 / 1e9
    assert times["b"] == 1e-4 + 1e6 / 1e9


def test_departure_frees_bandwidth_for_the_survivor():
    sched = Scheduler()
    net = FlowNetwork(sched)
    cap = Capacity("nic", 1e9)
    times = {}
    net.transfer(1e6, 1e9, [cap]).callbacks.append(
        lambda _ev: times.__setitem__("short", sched.now))
    net.transfer(4e6, 1e9, [cap]).callbacks.append(
        lambda _ev: times.__setitem__("long", sched.now))
    sched.run()
    # fair sharing: both at 0.5 GB/s until the short one drains at 2 ms,
    # then the survivor gets the full NIC for its remaining 3 MB
    assert times["short"] == pytest.approx(2e-3)
    assert times["long"] == pytest.approx(2e-3 + 3e-3)


def test_zero_size_transfer_completes_immediately():
    sched = Scheduler()
    net = FlowNetwork(sched)
    cap = Capacity("nic", 1e9)
    times = []
    net.transfer(0, 1e9, [cap]).callbacks.append(
        lambda _ev: times.append(sched.now))
    sched.run()
    assert times == [0.0]
    assert net.active_flows == 0

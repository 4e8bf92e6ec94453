"""Unit and property tests for the max-min fair fluid flow model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.flows import Bundle, Capacity, Flow, FlowNetwork, _place, _progressive_fill
from repro.des.process import Scheduler


def _run_transfer_times(flow_specs):
    """Run flows described as (start_time, size, cap, constraint_names).

    Returns completion times keyed by index.  Capacities are declared in
    the specs dict under key 'capacities'.
    """
    sched = Scheduler()
    net = FlowNetwork(sched)
    caps = {name: Capacity(name, limit) for name, limit in flow_specs["capacities"]}
    finish: dict[int, float] = {}

    def prog(i, start, size, cap, names):
        sched.current().sleep(start)
        net.transfer(size, cap, [caps[n] for n in names]).wait()
        finish[i] = sched.now

    for i, (start, size, cap, names) in enumerate(flow_specs["flows"]):
        sched.spawn(prog, i, start, size, cap, names, name=f"flow{i}")
    sched.run()
    return finish


def test_single_flow_limited_by_own_cap():
    finish = _run_transfer_times(
        {
            "capacities": [("nic", 1000.0)],
            "flows": [(0.0, 500.0, 100.0, ["nic"])],
        }
    )
    assert finish[0] == pytest.approx(5.0)


def test_single_flow_limited_by_capacity():
    finish = _run_transfer_times(
        {
            "capacities": [("nic", 50.0)],
            "flows": [(0.0, 500.0, 100.0, ["nic"])],
        }
    )
    assert finish[0] == pytest.approx(10.0)


def test_two_flows_share_capacity_fairly():
    finish = _run_transfer_times(
        {
            "capacities": [("nic", 100.0)],
            "flows": [
                (0.0, 500.0, 1000.0, ["nic"]),
                (0.0, 500.0, 1000.0, ["nic"]),
            ],
        }
    )
    # Each gets 50 B/s: both finish at t=10.
    assert finish[0] == pytest.approx(10.0)
    assert finish[1] == pytest.approx(10.0)


def test_departure_releases_bandwidth():
    finish = _run_transfer_times(
        {
            "capacities": [("nic", 100.0)],
            "flows": [
                (0.0, 100.0, 1000.0, ["nic"]),  # short
                (0.0, 500.0, 1000.0, ["nic"]),  # long
            ],
        }
    )
    # Shared at 50 B/s until the short flow finishes at t=2 (100B),
    # then the long flow (400B left) runs at 100 B/s: 2 + 4 = 6.
    assert finish[0] == pytest.approx(2.0)
    assert finish[1] == pytest.approx(6.0)


def test_late_arrival_steals_fair_share():
    finish = _run_transfer_times(
        {
            "capacities": [("nic", 100.0)],
            "flows": [
                (0.0, 500.0, 1000.0, ["nic"]),
                (2.0, 150.0, 1000.0, ["nic"]),
            ],
        }
    )
    # Flow0 alone until t=2 (sends 200, 300 left). Then 50 B/s each;
    # flow1 finishes at t=5 (150B). Flow0 has 150 left, full rate: t=6.5.
    assert finish[1] == pytest.approx(5.0)
    assert finish[0] == pytest.approx(6.5)


def test_flow_capped_below_fair_share_leaves_rest_to_others():
    finish = _run_transfer_times(
        {
            "capacities": [("nic", 100.0)],
            "flows": [
                (0.0, 100.0, 20.0, ["nic"]),  # capped at 20
                (0.0, 400.0, 1000.0, ["nic"]),  # takes the remaining 80
            ],
        }
    )
    assert finish[0] == pytest.approx(5.0)
    assert finish[1] == pytest.approx(5.0)


def test_two_constraint_flow_respects_both():
    # egress 100, ingress 30: flow runs at 30.
    finish = _run_transfer_times(
        {
            "capacities": [("egress", 100.0), ("ingress", 30.0)],
            "flows": [(0.0, 300.0, 1000.0, ["egress", "ingress"])],
        }
    )
    assert finish[0] == pytest.approx(10.0)


def test_cross_traffic_on_distinct_constraints_is_independent():
    finish = _run_transfer_times(
        {
            "capacities": [("a", 100.0), ("b", 100.0)],
            "flows": [
                (0.0, 100.0, 1000.0, ["a"]),
                (0.0, 100.0, 1000.0, ["b"]),
            ],
        }
    )
    assert finish[0] == pytest.approx(1.0)
    assert finish[1] == pytest.approx(1.0)


def test_zero_byte_transfer_completes_immediately():
    finish = _run_transfer_times(
        {
            "capacities": [("nic", 100.0)],
            "flows": [(1.0, 0.0, 10.0, ["nic"])],
        }
    )
    assert finish[0] == pytest.approx(1.0)


def test_negative_size_rejected():
    sched = Scheduler()
    net = FlowNetwork(sched)
    with pytest.raises(ValueError):
        net.transfer(-1.0, 10.0, [])


def test_conservation_of_bytes_under_churn():
    """Total transfer time equals total bytes / capacity when saturated."""
    n = 8
    finish = _run_transfer_times(
        {
            "capacities": [("nic", 100.0)],
            "flows": [(0.0, 100.0, 1000.0, ["nic"]) for _ in range(n)],
        }
    )
    # All identical flows over a shared bottleneck finish together at
    # total_bytes / capacity.
    assert all(t == pytest.approx(8.0) for t in finish.values())


# ---- property tests on the allocator itself --------------------------------


class _FakeEvent:
    def __init__(self):
        self.done = False


def _make_bundles(caps, specs):
    """One bundle per spec: (constraint names, rate cap, member flows),
    placed in classes as :meth:`FlowNetwork.transfer` places them;
    returns the bundles and the classes."""
    bundles = []
    classes = {}
    for cap_limit_names, rate_cap, members in specs:
        b = Bundle(rate_cap, tuple(caps[n] for n in cap_limit_names))
        for _ in range(members):
            f = Flow(1.0, rate_cap, b.constraints, _FakeEvent())  # type: ignore[arg-type]
            b.flows[f] = None
        _place(classes, b)
        bundles.append(b)
    return bundles, list(classes.values())


def _members(c):
    return [f for b in c.bundles for f in b.flows]


@settings(max_examples=200, deadline=None)
@given(
    limits=st.lists(st.floats(1.0, 1e4), min_size=1, max_size=4),
    flow_specs=st.lists(
        st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
                  st.floats(0.5, 1e4),
                  st.integers(1, 4)),
        min_size=1,
        max_size=10,
    ),
)
def test_progressive_fill_feasible_and_cap_respecting(limits, flow_specs):
    caps = {i: Capacity(f"c{i}", lim) for i, lim in enumerate(limits)}
    specs = [([i for i in names if i < len(limits)] or [0], cap, members)
             for names, cap, members in flow_specs]
    bundles, classes = _make_bundles(caps, specs)
    flows = [f for b in bundles for f in b.flows]
    rates = dict(_progressive_fill(classes).items())
    assert set(rates) == set(flows)

    # 1. No flow exceeds its own cap.
    for f in flows:
        assert rates[f] <= f.rate_cap * (1 + 1e-9)
    # 2. No constraint is oversubscribed.
    for c in caps.values():
        used = sum(rates[f] for f in _members(c))
        assert used <= c.limit * (1 + 1e-6)
    # 3. Work conservation: every flow is blocked by its cap or by a
    #    saturated constraint (max-min property).
    for f in flows:
        at_cap = rates[f] >= f.rate_cap * (1 - 1e-6)
        saturated = any(
            sum(rates[g] for g in _members(c)) >= c.limit * (1 - 1e-6)
            for c in f.constraints
        )
        assert at_cap or saturated
    # 4. All rates are finite and non-negative.
    for r in rates.values():
        assert math.isfinite(r) and r >= 0

"""The bundle fill against the per-flow fill it replaced, and bundle lifetime.

A bundle is the set of active flows sharing one rate cap and one
constraint tuple; the solver fills one rate per bundle.  The contract is
bit-exactness: for any flows, the bundled fill must return the rates
the per-flow fill returns, to the last bit.  ``_per_flow_fill`` below is
that per-flow kernel, kept verbatim as the reference.
"""

import math

from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from repro.des.flows import _EPS, Bundle, Capacity, Flow, FlowNetwork, _progressive_fill
from repro.des.process import Scheduler
from repro.models.cpu import ClusterSpec
from repro.models.network import get_network
from repro.simmpi.topology import ClusterRuntime


def _per_flow_fill(flows: set[Flow]) -> dict[Flow, float]:
    """The per-flow progressive fill (reference; one rate per flow)."""
    rates: dict[Flow, float] = dict.fromkeys(flows, 0.0)
    if not flows:
        return rates
    active = set(flows)
    residual: dict[Capacity, float] = {}
    counts: dict[Capacity, int] = {}
    for f in flows:
        for c in f.constraints:
            if c in counts:
                counts[c] += 1
            else:
                counts[c] = 1
                residual[c] = c.limit

    # Guard against pathological float stalls: each iteration freezes at
    # least one flow, so |flows| iterations always suffice.
    for _ in range(len(flows) + 1):
        if not active:
            break
        # Uniform increment allowed by each constraint and each flow cap.
        inc = math.inf
        for c, r in residual.items():
            n = counts[c]
            if n:
                inc = min(inc, r / n)
        for f in active:
            inc = min(inc, f.rate_cap - rates[f])
        inc = max(inc, 0.0)
        for f in active:
            rates[f] += inc
            for c in f.constraints:
                residual[c] -= inc
        # Freeze flows that hit their cap or sit on a saturated constraint.
        newly_frozen = [
            f
            for f in active
            if rates[f] >= f.rate_cap - _EPS * f.rate_cap
            or any(residual[c] <= _EPS * c.limit for c in f.constraints)
        ]
        if not newly_frozen:
            break
        for f in newly_frozen:
            active.discard(f)
            for c in f.constraints:
                counts[c] -= 1
    return rates


class _FakeEvent:
    pass


def _bundled(limits, keys, picks):
    """Flows keyed by ``keys[i] = (constraint ids, rate cap)``, grouped
    into bundles the way :meth:`FlowNetwork.transfer` groups them."""
    caps = [Capacity(f"c{i}", limit) for i, limit in enumerate(limits)]
    bundles: dict[tuple, Bundle] = {}
    for k in picks:
        ids, rate_cap = keys[k]
        constraints = tuple(caps[i] for i in ids)
        b = bundles.get((rate_cap, constraints))
        if b is None:
            b = bundles[(rate_cap, constraints)] = Bundle(rate_cap, constraints)
        b.flows[Flow(1.0, rate_cap, constraints, _FakeEvent())] = None
    return list(bundles.values())


@st.composite
def _fill_inputs(draw):
    limits = draw(st.lists(st.floats(1.0, 1e4), min_size=1, max_size=4))
    # Few keys, many flows: keys repeat, so bundles have several members.
    # Constraint tuples may be empty or name a capacity twice; rate caps
    # span the fair shares, so caps freeze some bundles before a
    # capacity saturates and fills take several rounds.
    keys = draw(st.lists(
        st.tuples(st.lists(st.integers(0, len(limits) - 1), max_size=3),
                  st.floats(0.5, 1e4)),
        min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(keys) - 1), min_size=1,
                          max_size=16))
    return limits, keys, picks


def _bits(rates):
    return {f: r.hex() for f, r in rates.items()}


@settings(max_examples=300, deadline=None)
@given(_fill_inputs())
# three rounds: caps 10 and 15 freeze first, then the nic saturates
@example(([100.0], [([0], 10.0), ([0], 15.0), ([0], 1e3)],
          [0, 0, 1, 2, 2, 2]))
# a bundle of three on a shared nic and a private pair capacity
@example(([1e3, 250.0], [([0, 1], 400.0), ([0], 400.0)], [0, 0, 0, 1, 1]))
def test_bundled_fill_matches_per_flow_fill_bit_for_bit(inputs):
    limits, keys, picks = inputs
    bundles = _bundled(limits, keys, picks)
    flows = {f for b in bundles for f in b.flows}
    rates = _progressive_fill(bundles)
    reference = _per_flow_fill(flows)
    # steer the search toward multi-round fills (one rate level per round)
    target(float(len(set(reference.values()))), label="rate levels")
    assert _bits(rates) == _bits(reference)


def test_multi_round_fill_gives_each_level_its_rate():
    bundles = _bundled([100.0], [([0], 10.0), ([0], 15.0), ([0], 1e3)],
                       [0, 0, 1, 2, 2, 2])
    rates = _progressive_fill(bundles)
    by_cap = {b.rate_cap: {rates[f] for f in b.flows} for b in bundles}
    # 6 flows grow by 10 (cap 10 freezes), 4 by 5 (cap 15 freezes),
    # then 3 share the last 20 of the nic
    assert by_cap[10.0] == {10.0} and by_cap[15.0] == {15.0}
    assert by_cap[1e3] == {15.0 + 20.0 / 3}
    assert _bits(rates) == _bits(_per_flow_fill(set(rates)))


def test_drained_network_holds_no_bundles():
    sched = Scheduler()
    net = FlowNetwork(sched)
    egress, ingress, pair = (Capacity("egress", 1e9), Capacity("ingress", 1e9),
                             Capacity("pair", 5e8))
    stream = (egress, ingress, pair)
    seen = []

    def snapshot(_ev):
        seen.append(sorted(len(b.flows) for b in net._bundles.values()))

    # one stream's three payloads share a bundle; another rate cap or
    # another constraint tuple makes a bundle of its own
    for size in (1e6, 2e6, 3e6):
        net.transfer(size, 4e8, stream).callbacks.append(snapshot)
    net.transfer(4e6, 3e8, stream).callbacks.append(snapshot)
    net.transfer(5e6, 4e8, (egress, ingress)).callbacks.append(snapshot)
    assert sorted(len(b.flows) for b in net._bundles.values()) == [1, 1, 3]
    assert len(pair.bundles) == 2 and len(egress.bundles) == 3
    sched.run()
    # each completion leaves its bundle and an emptied bundle is gone:
    # 1 MB first, then the flow off the pair capacity, 2 MB, 3 MB, 4 MB
    assert seen == [[1, 1, 2], [1, 2], [1, 1], [1], []]
    assert net.active_flows == 0
    assert net._bundles == {}
    assert not (egress.bundles or ingress.bundles or pair.bundles)


def test_pair_capacity_retargets_only_when_idle():
    sched = Scheduler()
    net = get_network("ethernet")
    cluster = ClusterRuntime(sched, ClusterSpec(2, 1), net, 2)
    small, large = 256 * 1024, 4 * 1024 * 1024
    assert net.stream_bandwidth(small) != net.stream_bandwidth(large)
    cap = cluster.pair_capacity(0, 1, small)
    assert cap.limit == net.stream_bandwidth(small)
    cluster.flownet.transfer(small, net.stream_bandwidth(small), (cap,))
    # busy: a message of another size shares the capacity as it is
    assert cluster.pair_capacity(0, 1, large) is cap
    assert cap.limit == net.stream_bandwidth(small)
    sched.run()
    # idle: the next message retargets the limit to its own size
    assert not cap.bundles
    assert cluster.pair_capacity(0, 1, large) is cap
    assert cap.limit == net.stream_bandwidth(large)

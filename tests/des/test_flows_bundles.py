"""The class fill against the per-flow fill it replaced, and the
lifetime of bundles and classes.

A bundle is the set of active flows sharing one rate cap and one
constraint tuple; a class holds the bundles with one rate cap, the same
shared capacities and private pair capacities of equal limits, and the
solver fills one rate per class and member count.  The contract is
bit-exactness: for any flows, the class fill must return the rates the
per-flow fill returns, to the last bit.  ``_per_flow_fill`` below is
that per-flow kernel, kept verbatim as the reference.
"""

import math

from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from repro.des.flows import (_EPS, Bundle, Capacity, Flow, FlowNetwork, _place,
                             _progressive_fill)
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


def _bundled(limits, keys, picks, pairs=()):
    """Flows keyed by ``keys[i] = (constraint ids, rate cap)``, grouped
    into bundles the way :meth:`FlowNetwork.transfer` groups them; the
    capacities whose ids are in *pairs* are per-pair stream capacities."""
    caps = [Capacity(f"c{i}", limit, pair=i in pairs)
            for i, limit in enumerate(limits)]
    bundles: dict[tuple, Bundle] = {}
    for k in picks:
        ids, rate_cap = keys[k]
        constraints = tuple(caps[i] for i in ids)
        b = bundles.get((rate_cap, constraints))
        if b is None:
            b = bundles[(rate_cap, constraints)] = Bundle(rate_cap, constraints)
        b.flows[Flow(1.0, rate_cap, constraints, _FakeEvent())] = None
    return list(bundles.values())


def _fill(bundles):
    """The fill of *bundles*, placed in classes in birth order the way
    :meth:`FlowNetwork.transfer` places them."""
    classes = {}
    for b in bundles:
        _place(classes, b)
    return _progressive_fill(classes.values())


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
    rates = dict(_fill(bundles).items())
    reference = _per_flow_fill(flows)
    # steer the search toward multi-round fills (one rate level per round)
    target(float(len(set(reference.values()))), label="rate levels")
    assert _bits(rates) == _bits(reference)


def test_multi_round_fill_gives_each_level_its_rate():
    bundles = _bundled([100.0], [([0], 10.0), ([0], 15.0), ([0], 1e3)],
                       [0, 0, 1, 2, 2, 2])
    rates = dict(_fill(bundles).items())
    by_cap = {b.rate_cap: {rates[f] for f in b.flows} for b in bundles}
    # 6 flows grow by 10 (cap 10 freezes), 4 by 5 (cap 15 freezes),
    # then 3 share the last 20 of the nic
    assert by_cap[10.0] == {10.0} and by_cap[15.0] == {15.0}
    assert by_cap[1e3] == {15.0 + 20.0 / 3}
    assert _bits(rates) == _bits(_per_flow_fill(set(rates)))


@st.composite
def _symmetric_inputs(draw):
    """A few shared NIC-like capacities and many pair capacities whose
    limits and rate caps come from small sets, so classes hold many
    bundles; mixed member counts, pairs carrying a second message size,
    and at times a tuple naming one capacity twice and an empty tuple."""
    nics = draw(st.lists(st.floats(1.0, 1e4), min_size=1, max_size=3))
    pair_limits = draw(st.lists(st.floats(1.0, 1e4), min_size=1, max_size=2))
    rate_caps = st.sampled_from(
        draw(st.lists(st.floats(0.5, 1e4), min_size=1, max_size=2)))
    npairs = draw(st.integers(1, 12))
    limits = nics + [draw(st.sampled_from(pair_limits)) for _ in range(npairs)]
    nic = st.integers(0, len(nics) - 1)
    keys = [((draw(nic), draw(nic), len(nics) + p), draw(rate_caps))
            for p in range(npairs)]
    for p in draw(st.lists(st.integers(0, npairs - 1), max_size=2)):
        keys.append((keys[p][0], draw(rate_caps)))
    if draw(st.booleans()):
        # a nic, a stream's pair capacity, or a pair capacity of its own
        twice = draw(st.integers(0, len(limits)))
        if twice == len(limits):
            limits.append(draw(st.sampled_from(pair_limits)))
        keys.append(((twice, twice), draw(rate_caps)))
    if draw(st.booleans()):
        keys.append(((), draw(rate_caps)))
    picks = [k for k in range(len(keys)) for _ in range(draw(st.integers(1, 3)))]
    return limits, keys, draw(st.permutations(picks)), range(len(nics), len(limits))


@settings(max_examples=300, deadline=None)
@given(_symmetric_inputs())
# one class of three bundles on two nics: groups of one and of two members
@example(([1e3, 2e3, 250.0, 250.0, 250.0],
          [((0, 1, 2), 400.0), ((0, 1, 3), 400.0), ((0, 1, 4), 400.0)],
          [0, 1, 1, 2, 2], (2, 3, 4)))
# a pair capacity named twice after its stream claimed it, and an empty tuple
@example(([1e3, 300.0, 300.0],
          [((0, 0, 1), 200.0), ((0, 0, 2), 200.0), ((1, 1), 50.0), ((), 7.0)],
          [0, 1, 2, 3, 1], (1, 2)))
# a free pair capacity named twice stays shared: it loses the increment
# twice per member flow
@example(([1e3, 100.0], [((0, 1, 1), 400.0)], [0, 0], (1,)))
def test_class_fill_matches_per_flow_fill_on_symmetric_inputs(inputs):
    limits, keys, picks, pairs = inputs
    bundles = _bundled(limits, keys, picks, pairs)
    flows = {f for b in bundles for f in b.flows}
    fill = _fill(bundles)
    # steer the search toward large classes
    target(float(max(len(members) for _, members in fill.groups)),
           label="bundles per fill unit")
    assert len(fill) == len(flows)
    assert _bits(dict(fill.items())) == _bits(_per_flow_fill(flows))


def test_classes_never_span_components():
    """Streams on private pair capacities of one limit, with no shared
    capacity, are separate components and separate classes.  Filled
    together, the one-flow stream would grow by L/3 in the round that
    freezes the three-flow stream, then by L - L/3: not L for this
    limit."""
    limit = 7418.128105618033
    assert limit / 3 + (limit - limit / 3) != limit
    sched = Scheduler()
    net = FlowNetwork(sched)
    alone = Capacity("alone", limit, pair=True)
    crowded = Capacity("crowded", limit, pair=True)
    times = []
    net.transfer(1e4, 1e6, (alone,)).callbacks.append(
        lambda _ev: times.append(sched.now))
    for _ in range(3):
        net.transfer(1e4, 1e6, (crowded,))
    assert len(net._classes) == 2
    sched.run()
    assert times == [1e4 / limit]


def test_drained_network_holds_no_bundles():
    sched = Scheduler()
    net = FlowNetwork(sched)
    egress, ingress, pair = (Capacity("egress", 1e9), Capacity("ingress", 1e9),
                             Capacity("pair", 5e8, pair=True))
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
    # the second rate cap on the pair capacity made it shared: no two
    # bundles can share a class
    assert len(net._classes) == 3 and len(pair.classes) == 2
    sched.run()
    # each completion leaves its bundle and an emptied bundle is gone:
    # 1 MB first, then the flow off the pair capacity, 2 MB, 3 MB, 4 MB
    assert seen == [[1, 1, 2], [1, 2], [1, 1], [1], []]
    assert net.active_flows == 0
    assert net._bundles == {}
    assert not (egress.bundles or ingress.bundles or pair.bundles)
    # and no classes: every capacity's class map is empty
    assert net._classes == {}
    assert not (egress.classes or ingress.classes or pair.classes)


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

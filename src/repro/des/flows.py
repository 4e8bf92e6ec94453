"""Max-min fair fluid bandwidth sharing for NIC/link contention.

The OSU multiple-pair experiments in the paper are contention
phenomena: N concurrent message streams share one NIC in each node.  We
model each in-flight message payload as a *fluid flow* with

- a per-flow rate cap (the stream's standalone achievable bandwidth for
  that message size, from the calibrated network model), and
- a set of :class:`Capacity` constraints it traverses (sender egress,
  receiver ingress).

Whenever a flow starts or finishes, rates are recomputed with the
classic progressive-filling algorithm, which yields the max-min fair
allocation: all flows grow at the same rate until either their own cap
or a saturated constraint freezes them.

A **bundle** holds the active flows that share one rate cap and one
constraint tuple (in the transport, one ordered rank pair's in-flight
payloads of one size).  Bundles with the same rate cap and the same
capacities, up to their private pair capacities, form a **class** (in
a 64-rank alltoall, every rank pair from one node to another), and the
class is the solver's unit: capacities track the classes that cross
them, dirty tracking and component discovery walk classes, and
:func:`_progressive_fill` computes one rate per *group*, the bundles of
one class with one member count.

- A class key is the rate cap, the shared capacities by identity, and
  the limits of the private ones.  A capacity is private, keyed by its
  limit, while it is a per-pair stream capacity (``pair=True``) that
  one bundle crosses and names once; a second bundle on it makes it
  shared for both, and its first bundle moves to the class its new key
  names.  NIC directions are always shared.
- A class has at least one shared capacity, or it holds one bundle, so
  a class never spans two components.  Filling two components together
  would couple their rounds and change the last bit (``L/3 + (L - L/3)``
  is not always ``L``), so this rule keeps the fill of a component what
  it would be without classes.

Classes are exact.  Inside one fill, the bundles of a group start at
rate 0, meet the same shared residuals, private residuals that start
at equal limits and lose the same increment the same number of times,
and the same rate cap; so every round gives them the same increment
and the same freeze test, and the per-flow fill gives all their flows
one rate to the last bit.  What a group must not change is a
capacity's residual: the per-flow fill subtracts the round's increment
once per member flow, and ``k * inc`` is a different float from ``k``
repeated subtractions, so the fill still subtracts ``inc`` once per
member flow, in a loop over the count.  When one group is left
growing, its rate after the round's increment is final (it freezes,
or nothing freezes and the fill stops), so that round subtracts
nothing.

The solver is **incremental**: a membership change (arrival/departure)
only re-fills the *connected components* of the class/capacity sharing
graph it touches — flows in untouched components keep their rates,
their progress anchors, and their completion times, bit for bit.  This
is exact, not an approximation: the max-min fair allocation of one
component depends only on that component's members, and
:func:`_progressive_fill` is iteration-order independent (every round
applies one shared increment, and min over floats is exact), so
re-filling an unchanged component would reproduce the same rates to
the last bit.  The "exact" mode (``FlowNetwork(exact=True)``) seeds
every rebalance with *all* classes — same code path, used by the
property tests to pin the equivalence.

Two more engine-load choices matter at scale:

- **lazy progress anchors** — each flow stores ``(remaining, anchored
  at, rate)`` and is only re-anchored when its rate actually changes
  (bit comparison); remaining bytes at any time are the closed form
  ``remaining - rate * (t - anchor)``, which is path-independent, so
  skipping intermediate anchor updates never changes results;
- a **single completion event** — instead of one cancel/reschedule per
  flow per rebalance (the former fig6 heap hot spot), the network keeps
  one engine event targeted at the earliest completion among all flows
  and retargets it only when that minimum moves.

This is the standard flow-level abstraction used by packet-free network
simulators; it reproduces exactly the effects the paper reports —
baseline saturation at few pairs for large messages, linear scaling for
small messages, and encrypted flows catching up with the baseline once
crypto (per-core) rather than the NIC (shared) is the bottleneck.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.des.engine import EventHandle
from repro.des.process import Scheduler, SimEvent

_EPS = 1e-12


class Capacity:
    """A named capacity constraint in bytes/second (e.g. one NIC direction).

    ``pair=True`` marks a per-pair stream capacity: while one bundle
    crosses it, that bundle's class keys it by its limit.
    """

    __slots__ = ("name", "limit", "pair", "classes", "_owner", "_residual",
                 "_count")

    def __init__(self, name: str, limit: float, *, pair: bool = False):
        if limit <= 0:
            raise ValueError(f"capacity {name!r} must be positive, got {limit}")
        self.name = name
        self.limit = limit
        self.pair = pair
        #: the live classes that cross this capacity as a shared one
        self.classes: set[BundleClass] = set()
        #: the one bundle crossing this capacity as its private one
        self._owner: Bundle | None = None
        #: scratch of :func:`_progressive_fill`: unallocated bandwidth and
        #: the number of still-growing member flows in the current call
        self._residual = 0.0
        self._count = 0

    @property
    def bundles(self) -> set[Bundle]:
        """The live bundles whose flows traverse this capacity."""
        live = {b for cls in self.classes for b in cls.bundles}
        if self._owner is not None:
            live.add(self._owner)
        return live

    def __repr__(self) -> str:
        nflows = sum(len(b.flows) for b in self.bundles)
        return f"<Capacity {self.name} {self.limit:.3g}B/s {nflows} flows>"


class Flow:
    """One fluid transfer: *size* bytes through *constraints* at ≤ *rate_cap*."""

    __slots__ = (
        "size",
        "rate_cap",
        "constraints",
        "done",
        "_remaining",
        "_rate",
        "_last_update",
        "_completion_time",
        "_index",
        "_bundle",
    )

    def __init__(
        self,
        size: float,
        rate_cap: float,
        constraints: tuple[Capacity, ...],
        done: SimEvent,
    ):
        self.size = size
        self.rate_cap = rate_cap
        self.constraints = constraints
        self.done = done
        #: bytes left at the anchor time ``_last_update``; only
        #: re-anchored when ``_rate`` changes (lazy drain)
        self._remaining = float(size)
        self._rate = 0.0
        self._last_update = 0.0
        #: absolute virtual completion time under the current rate
        #: (``inf`` while the rate is zero)
        self._completion_time = math.inf
        #: arrival number in the owning network — the deterministic
        #: ordering key for completions at equal times
        self._index = -1
        #: the bundle this flow belongs to while it is active
        self._bundle: Bundle | None = None

    @property
    def rate(self) -> float:
        return self._rate

    def remaining_at(self, now: float) -> float:
        return max(0.0, self._remaining - self._rate * (now - self._last_update))


class Bundle:
    """The active flows sharing one rate cap and one constraint tuple.

    Every member gets the same max-min rate; ``flows`` keeps arrival
    order.
    """

    __slots__ = ("key", "rate_cap", "constraints", "flows", "cls", "_rate",
                 "_total")

    def __init__(self, rate_cap: float, constraints: tuple[Capacity, ...]):
        self.key = (rate_cap, constraints)
        self.rate_cap = rate_cap
        self.constraints = constraints
        self.flows: dict[Flow, None] = {}
        #: the class this bundle is filled with (set by :func:`_place`)
        self.cls: BundleClass | None = None
        #: scratch of :func:`_progressive_fill` while this bundle
        #: represents its group: the group's rate and member flows
        self._rate = 0.0
        self._total = 0


class BundleClass:
    """Bundles with one rate cap, the same shared capacities and private
    capacities of equal limits; see the module docstring."""

    __slots__ = ("key", "shared", "bundles")

    def __init__(self, key, shared: tuple[Capacity, ...]):
        self.key = key
        #: the shared capacities, as often as the constraint tuple names them
        self.shared = shared
        self.bundles: dict[Bundle, None] = {}


def _place(classes: dict, bundle: Bundle) -> None:
    """Put *bundle* in its class in the registry *classes* (key ->
    class), claiming the free pair capacities it names once as private.

    A capacity another bundle holds as private turns shared for both:
    the holder leaves its class and is placed again.
    """
    constraints = bundle.constraints
    # the rate cap, then per constraint a shared capacity or a private
    # one's limit
    parts: list = [bundle.rate_cap]
    holders: list[Bundle] = []
    for c in constraints:
        owner = c._owner
        if owner is None:
            if c.pair and not c.classes and constraints.count(c) == 1:
                c._owner = bundle
                parts.append(c.limit)
                continue
        elif owner is bundle:
            parts.append(c.limit)
            continue
        else:
            c._owner = None
            if owner not in holders:
                holders.append(owner)
        parts.append(c)
    key = tuple(parts)
    cls = classes.get(key)
    if cls is None:
        shared = tuple(p for p in parts if isinstance(p, Capacity))
        if not shared:
            # no shared capacity: a class of its own
            key = bundle
        cls = classes[key] = BundleClass(key, shared)
        for c in shared:
            c.classes.add(cls)
    cls.bundles[bundle] = None
    bundle.cls = cls
    for holder in holders:
        _leave(classes, holder)
        _place(classes, holder)


def _leave(classes: dict, bundle: Bundle) -> None:
    """Take *bundle* out of its class; an emptied class is dropped."""
    cls = bundle.cls
    del cls.bundles[bundle]
    if not cls.bundles:
        del classes[cls.key]
        for c in cls.shared:
            c.classes.discard(cls)


class FlowNetwork:
    """Tracks active flows and keeps the max-min fair allocation current.

    ``exact=True`` disables the dirty-component tracking: every
    rebalance re-fills every class (the historical behavior, same fill
    kernel).  The property tests drive an exact and an incremental
    network through identical schedules and assert bit-equal outcomes.
    """

    def __init__(self, scheduler: Scheduler, *, exact: bool = False):
        self._scheduler = scheduler
        #: insertion-ordered (dict-as-ordered-set): completion ties at
        #: one virtual time resolve in arrival order, deterministically
        self._flows: dict[Flow, None] = {}
        #: live bundles by (rate cap, constraint tuple); a bundle leaves
        #: when its last flow completes
        self._bundles: dict[tuple, Bundle] = {}
        #: live classes by key (see :func:`_place`)
        self._classes: dict = {}
        self._rebalance_pending = False
        self._exact = exact
        self._next_index = 0
        #: classes whose component must be re-filled at the next
        #: rebalance; for a class emptied meanwhile, the components of
        #: its shared capacities
        self._dirty: set[BundleClass] = set()
        #: the one engine event for the earliest completion
        self._completion: EventHandle | None = None
        self._completion_time = math.inf

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def transfer(
        self,
        size: float,
        rate_cap: float,
        constraints: Iterable[Capacity],
    ) -> SimEvent:
        """Start a flow; returns an event that succeeds when it completes.

        A zero-byte transfer completes at the current virtual time.
        """
        if size < 0:
            raise ValueError(f"negative flow size: {size}")
        if rate_cap <= 0:
            raise ValueError(f"non-positive rate cap: {rate_cap}")
        done = self._scheduler.event()
        if size == 0:
            self._scheduler.engine.schedule(0.0, done.succeed, None)
            return done
        flow = Flow(size, rate_cap, tuple(constraints), done)
        flow._last_update = self._scheduler.now
        flow._index = self._next_index
        self._next_index += 1
        self._flows[flow] = None
        bundle = self._bundles.get((rate_cap, flow.constraints))
        if bundle is None:
            bundle = Bundle(rate_cap, flow.constraints)
            self._bundles[bundle.key] = bundle
            _place(self._classes, bundle)
        bundle.flows[flow] = None
        flow._bundle = bundle
        self._dirty.add(bundle.cls)
        self._schedule_rebalance()
        return flow.done

    def _schedule_rebalance(self) -> None:
        """Coalesce rebalances: all membership changes at one virtual
        timestamp trigger a single rate recomputation (flows make no
        progress within a timestamp, so this is timing-exact and turns
        the O(F) joins of a collective step into one O(F) pass)."""
        if self._rebalance_pending:
            return
        self._rebalance_pending = True
        self._scheduler.engine.schedule(0.0, self._run_pending_rebalance)

    def _run_pending_rebalance(self) -> None:
        self._rebalance_pending = False
        self._rebalance()

    def _rebalance(self) -> None:
        """Re-fill every dirty component; then retarget the completion."""
        now = self._scheduler.now
        if self._exact:
            seeds: Iterable[BundleClass] = list(self._classes.values())
            self._dirty.clear()
        else:
            seeds = self._dirty
            self._dirty = set()
        seen: set[BundleClass] = set()
        cap_seen: set[Capacity] = set()

        def refill(comp: list[BundleClass]) -> None:
            for rep, members in _progressive_fill(comp).groups:
                new_rate = rep._rate
                # a transient zero rate (cap rounding) never completes;
                # the next membership change will re-fill this component
                moving = new_rate > _EPS
                for b in members:
                    for f in b.flows:
                        rate = f._rate
                        if new_rate == rate:
                            # bit-identical rate: anchor and completion stand
                            continue
                        # remaining_at(now), inline: one call per flow
                        remaining = f._remaining - rate * (now - f._last_update)
                        if not remaining > 0.0:
                            remaining = 0.0
                        f._remaining = remaining
                        f._last_update = now
                        f._rate = new_rate
                        f._completion_time = (now + remaining / new_rate
                                              if moving else math.inf)

        def expand(comp: list[BundleClass]) -> list[BundleClass]:
            # Breadth-first over the class/capacity bipartite graph;
            # *comp* grows while it is walked.  Each capacity's classes
            # are walked exactly once (when the capacity is first seen),
            # keeping discovery linear even when every class shares one
            # NIC direction.  Private capacities lead nowhere else.
            # Discovery order is free: the fill is order-independent.
            for cls in comp:
                for c in cls.shared:
                    if c not in cap_seen:
                        cap_seen.add(c)
                        for g in c.classes:
                            if g not in seen:
                                seen.add(g)
                                comp.append(g)
            return comp

        for seed in seeds:
            if seed.bundles:
                if seed not in seen:
                    seen.add(seed)
                    refill(expand([seed]))
                continue
            # an emptied class: the components of its shared capacities
            for cap in seed.shared:
                if cap not in cap_seen and cap.classes:
                    # an unseen capacity's classes are unseen too
                    cap_seen.add(cap)
                    seen.update(cap.classes)
                    refill(expand(list(cap.classes)))
        self._retarget_completion()

    def _retarget_completion(self) -> None:
        """Point the single completion event at the earliest finisher."""
        tmin = math.inf
        for f in self._flows:
            if f._completion_time < tmin:
                tmin = f._completion_time
        if (
            tmin == self._completion_time
            and self._completion is not None
            and not self._completion.cancelled
        ):
            return
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        self._completion_time = tmin
        if tmin != math.inf:
            self._completion = self._scheduler.engine.schedule_at(
                tmin, self._fire_completions
            )

    def _fire_completions(self) -> None:
        """Finish every flow due now (arrival order), mark their classes
        dirty, and schedule the follow-up rebalance."""
        self._completion = None
        self._completion_time = math.inf
        now = self._scheduler.now
        ripe = [f for f in self._flows if f._completion_time <= now]
        for f in ripe:
            del self._flows[f]
            bundle = f._bundle
            cls = bundle.cls
            del bundle.flows[f]
            if not bundle.flows:
                del self._bundles[bundle.key]
                _leave(self._classes, bundle)
                for c in bundle.constraints:
                    if c._owner is bundle:
                        c._owner = None
            self._dirty.add(cls)
            f._bundle = None
            f._remaining = 0.0
            f._last_update = now
            f._rate = 0.0
            f._completion_time = math.inf
            f.done.succeed(None)
        self._schedule_rebalance()


class _Rates:
    """:func:`_progressive_fill`'s result: the groups as (representative,
    member bundles) pairs, the representative carrying the group's rate,
    and a per-flow view of them (``len`` and ``items``)."""

    __slots__ = ("groups",)

    def __init__(self, groups: list[tuple[Bundle, Iterable[Bundle]]]):
        self.groups = groups

    def __len__(self) -> int:
        return sum(rep._total for rep, _ in self.groups)

    def items(self) -> Iterator[tuple[Flow, float]]:
        for rep, members in self.groups:
            rate = rep._rate
            for b in members:
                for f in b.flows:
                    yield f, rate


def _progressive_fill(classes: Iterable[BundleClass]) -> _Rates:
    """Max-min fair rates for the flows of *classes* under per-flow caps
    and shared capacities.

    The bundles of each class are grouped by member count, and each
    group is filled as its first bundle, the *representative*: its
    shared capacities count every member flow of the group, its private
    capacities stand for every member's (they have equal limits and
    member counts), and its rate is the group's.  Per-capacity
    *active-flow counts* are maintained incrementally (and decremented
    as groups freeze), so each filling round walks the representatives'
    constraint lists once, plus one float subtraction per growing flow
    and shared capacity and per growing representative member and
    private capacity.  Counts and residuals live in the capacities'
    scratch slots for the length of one call.

    The result is independent of the iteration order of *classes*: each
    round applies the same shared increment (a min over floats, which
    is exact) to every active group, and a capacity's residual is
    reduced by the identical value once per member flow — the same
    subtraction multiset in any order, and the same one the per-flow
    fill performs.  The incremental solver's component-at-a-time
    refills rely on this.
    """
    groups: list[tuple[Bundle, Iterable[Bundle]]] = []
    for cls in classes:
        for c in cls.shared:
            c._count = 0
        bundles = cls.bundles
        others = iter(bundles)
        rep = next(others)
        n = len(rep.flows)
        for b in others:
            if len(b.flows) != n:
                break
        else:
            # one member count: the class is one group
            rep._total = n * len(bundles)
            groups.append((rep, bundles))
            continue
        by_count: dict[int, list[Bundle]] = {}
        for b in bundles:
            n = len(b.flows)
            same = by_count.get(n)
            if same is None:
                by_count[n] = [b]
            else:
                same.append(b)
        for n, same in by_count.items():
            same[0]._total = n * len(same)
            groups.append((same[0], same))
    caps: list[Capacity] = []
    active: list[Bundle] = []
    for rep, _ in groups:
        rep._rate = 0.0
        active.append(rep)
        total = rep._total
        for c in rep.constraints:
            if c._owner is rep:
                c._residual = c.limit
                c._count = len(rep.flows)
                caps.append(c)
                continue
            if not c._count:
                c._residual = c.limit
                caps.append(c)
            c._count += total

    # Guard against pathological float stalls: each iteration freezes at
    # least one group, so |groups| iterations always suffice.
    for _ in range(len(active) + 1):
        if not active:
            break
        # Uniform increment allowed by each constraint and each flow cap.
        inc = math.inf
        for c in caps:
            n = c._count
            if n:
                share = c._residual / n
                if share < inc:
                    inc = share
        for b in active:
            headroom = b.rate_cap - b._rate
            if headroom < inc:
                inc = headroom
        inc = max(inc, 0.0)
        if len(active) == 1:
            # the last group's rate is final whether it freezes or not
            active[0]._rate += inc
            break
        for b in active:
            b._rate += inc
        # once per growing member flow: k subtractions, not k * inc
        for c in caps:
            residual = c._residual
            for _ in range(c._count):
                residual -= inc
            c._residual = residual
        # Freeze groups that hit their cap or sit on a saturated constraint.
        saturated = {c for c in caps if c._residual <= _EPS * c.limit}
        growing = []
        for b in active:
            if (b._rate >= b.rate_cap - _EPS * b.rate_cap
                    or not saturated.isdisjoint(b.constraints)):
                total = b._total
                for c in b.constraints:
                    if c._owner is b:
                        c._count = 0
                    else:
                        c._count -= total
            else:
                growing.append(b)
        if len(growing) == len(active):
            break
        active = growing
    return _Rates(groups)

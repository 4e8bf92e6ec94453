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

The unit of the solver is the **bundle**: the active flows that share
one rate cap and one constraint tuple (in the transport, one ordered
rank pair's in-flight payloads of one size).  Capacities track the
bundles that cross them, and dirty tracking, component discovery and
:func:`_progressive_fill` all run over bundles.  Bundling is exact:
members of a bundle start every fill at rate 0, receive the same
increment every round and meet the same freeze test, so the per-flow
fill gives them one rate to the last bit.  What a bundle must not
change is a capacity's residual: the per-flow fill subtracts the
round's increment once per member flow, and ``k * inc`` is a different
float from ``k`` repeated subtractions, so the bundle fill still
subtracts ``inc`` once per member, in a loop over the member count.

The solver is **incremental**: a membership change (arrival/departure)
only re-fills the *connected components* of the bundle/capacity sharing
graph it touches — flows in untouched components keep their rates,
their progress anchors, and their completion times, bit for bit.  This
is exact, not an approximation: the max-min fair allocation of one
component depends only on that component's members, and
:func:`_progressive_fill` is iteration-order independent (every round
applies one shared increment, and min over floats is exact), so
re-filling an unchanged component would reproduce the same rates to
the last bit.  The "exact" mode (``FlowNetwork(exact=True)``) seeds
every rebalance with *all* bundles — same code path, used by the
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
from typing import Collection, Iterable

from repro.des.engine import EventHandle
from repro.des.process import Scheduler, SimEvent

_EPS = 1e-12


class Capacity:
    """A named capacity constraint in bytes/second (e.g. one NIC direction)."""

    __slots__ = ("name", "limit", "bundles", "_residual", "_count")

    def __init__(self, name: str, limit: float):
        if limit <= 0:
            raise ValueError(f"capacity {name!r} must be positive, got {limit}")
        self.name = name
        self.limit = limit
        #: the live bundles whose flows traverse this capacity
        self.bundles: set[Bundle] = set()
        #: scratch of :func:`_progressive_fill`: unallocated bandwidth and
        #: the number of still-growing member flows in the current call
        self._residual = 0.0
        self._count = 0

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

    Every member gets the same max-min rate, so the fill computes one
    rate per bundle; ``flows`` keeps arrival order.
    """

    __slots__ = ("key", "rate_cap", "constraints", "flows", "_rate")

    def __init__(self, rate_cap: float, constraints: tuple[Capacity, ...]):
        self.key = (rate_cap, constraints)
        self.rate_cap = rate_cap
        self.constraints = constraints
        self.flows: dict[Flow, None] = {}
        #: scratch of :func:`_progressive_fill`: the rate being filled
        self._rate = 0.0


class FlowNetwork:
    """Tracks active flows and keeps the max-min fair allocation current.

    ``exact=True`` disables the dirty-component tracking: every
    rebalance re-fills every bundle (the historical behavior, same fill
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
        self._rebalance_pending = False
        self._exact = exact
        self._next_index = 0
        #: bundles whose component must be re-filled at the next rebalance
        self._dirty: set[Bundle] = set()
        #: capacities whose member bundles must be re-filled (departure
        #: seeding is per-capacity: O(constraints), not O(neighbors))
        self._dirty_caps: set[Capacity] = set()
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
            for c in bundle.constraints:
                c.bundles.add(bundle)
        bundle.flows[flow] = None
        flow._bundle = bundle
        self._dirty.add(bundle)
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
            bundle_seeds: Iterable[Bundle] = list(self._bundles.values())
            cap_seeds: Iterable[Capacity] = ()
        else:
            # departures may have emptied bundles seeded meanwhile
            bundle_seeds = [b for b in self._dirty if b.flows]
            cap_seeds = [c for c in self._dirty_caps if c.bundles]
        self._dirty.clear()
        self._dirty_caps.clear()
        seen: set[Bundle] = set()
        cap_seen: set[Capacity] = set()

        def refill(comp: list[Bundle]) -> None:
            rates = _progressive_fill(comp)
            for f, new_rate in rates.items():
                if new_rate == f._rate:
                    # bit-identical rate: anchor and completion stand
                    continue
                # remaining_at(now), inline: one call per flow per refill
                f._remaining = max(
                    0.0, f._remaining - f._rate * (now - f._last_update))
                f._last_update = now
                f._rate = new_rate
                if new_rate > _EPS:
                    f._completion_time = now + f._remaining / new_rate
                else:
                    # transient zero rate (cap rounding); the next
                    # membership change will re-fill this component
                    f._completion_time = math.inf

        def expand(comp: list[Bundle]) -> list[Bundle]:
            # Breadth-first over the bundle/capacity bipartite graph;
            # *comp* grows while it is walked.  Each capacity's bundles
            # are walked exactly once (when the capacity is first seen),
            # keeping discovery linear even when every bundle shares one
            # NIC direction.  Discovery order is free: the fill is
            # order-independent.
            for b in comp:
                for c in b.constraints:
                    if c not in cap_seen:
                        cap_seen.add(c)
                        for g in c.bundles:
                            if g not in seen:
                                seen.add(g)
                                comp.append(g)
            return comp

        for seed in bundle_seeds:
            if seed not in seen:
                seen.add(seed)
                refill(expand([seed]))
        for cap in cap_seeds:
            if cap not in cap_seen:
                # an unseen capacity's bundles are unseen too
                cap_seen.add(cap)
                seen.update(cap.bundles)
                refill(expand(list(cap.bundles)))
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
        """Finish every flow due now (arrival order), seed their
        capacities dirty, and schedule the follow-up rebalance."""
        self._completion = None
        self._completion_time = math.inf
        now = self._scheduler.now
        ripe = [f for f in self._flows if f._completion_time <= now]
        for f in ripe:
            del self._flows[f]
            bundle = f._bundle
            del bundle.flows[f]
            if not bundle.flows:
                del self._bundles[bundle.key]
                for c in bundle.constraints:
                    c.bundles.discard(bundle)
            self._dirty_caps.update(bundle.constraints)
            f._bundle = None
            f._remaining = 0.0
            f._last_update = now
            f._rate = 0.0
            f._completion_time = math.inf
            f.done.succeed(None)
        self._schedule_rebalance()


def _progressive_fill(bundles: Collection[Bundle]) -> dict[Flow, float]:
    """Max-min fair rates for the flows of *bundles* under per-flow caps
    and shared capacities.

    Per-capacity *active-flow counts* are maintained incrementally (and
    decremented as bundles freeze), so each filling round walks the
    bundles' constraint lists once, plus one float subtraction per
    growing flow and constraint, rather than re-scanning every
    capacity's membership set.  Counts and residuals live in the
    capacities' scratch slots for the length of one call.

    The result is independent of the iteration order of *bundles*: each
    round applies the same shared increment (a min over floats, which
    is exact) to every active bundle, and a capacity's residual is
    reduced by the identical value once per member flow — the same
    subtraction multiset in any order, and the same one the per-flow
    fill performs.  The incremental solver's component-at-a-time
    refills rely on this.
    """
    caps: list[Capacity] = []
    for b in bundles:
        b._rate = 0.0
        for c in b.constraints:
            c._count = 0
    for b in bundles:
        n = len(b.flows)
        for c in b.constraints:
            if not c._count:
                c._residual = c.limit
                caps.append(c)
            c._count += n

    active = list(bundles)
    # Guard against pathological float stalls: each iteration freezes at
    # least one bundle, so |bundles| iterations always suffice.
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
        for b in active:
            b._rate += inc
        # once per growing member flow: k subtractions, not k * inc
        for c in caps:
            residual = c._residual
            for _ in range(c._count):
                residual -= inc
            c._residual = residual
        # Freeze bundles that hit their cap or sit on a saturated constraint.
        saturated = {c for c in caps if c._residual <= _EPS * c.limit}
        growing = []
        for b in active:
            if (b._rate >= b.rate_cap - _EPS * b.rate_cap
                    or not saturated.isdisjoint(b.constraints)):
                n = len(b.flows)
                for c in b.constraints:
                    c._count -= n
            else:
                growing.append(b)
        if len(growing) == len(active):
            break
        active = growing
    return {f: b._rate for b in bundles for f in b.flows}

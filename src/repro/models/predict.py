"""The analytical predictor: the simulator's own cost model, in closed form.

The paper explains every encrypted result additively (§V-A: "the
encryption-decryption cost" plus "the underlying MPI communications").
This module evaluates that arithmetic for one benchmark cell straight
from the objects the simulator itself charges — the per-message wire
costs of :class:`~repro.models.network.NetworkModel`, the seal and open
times of :class:`~repro.models.cryptolib.CryptoLibraryProfile`, the
helper-core chain of :class:`~repro.encmpi.pipeline.ChunkPipeline` and
the retry terms of :class:`~repro.simmpi.resilience.ReliabilityManager`.
Nothing is simulated and nothing is fitted:

- **ping-pong, plain or serially sealed** — ``encrypt(s) +
  one-way(s + 28) + decrypt(s)`` (:func:`explain_pingpong`);
- **CryptMPI ping-pong** — chunk seals chained on the helper cores, the
  rank's core injecting chunks in order, the chunk flows sharing the
  pair's stream capacity max-min fair, and the opens chained on the
  receiver's helpers, in one pass over the chunks;
- **serial multipair** — each sender injects one message per step, a
  pair's flows share its slice of the NIC, the receiver opens in order;
- **faults** (ping-pong only) — the expected retransmission time
  ``sum_k loss^k * (retry_delay(k) + resend)``.

Ping-pong answers equal the simulator's; multipair answers land within
2% of it.  Multipair queries with a pipelined plan or with faults are
refused.  The ``predict`` registry experiment
(:mod:`repro.experiments.predict`) holds every family to these claims
against fresh simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.aead import WIRE_OVERHEAD
from repro.encmpi.plan import CryptoPlan
from repro.models.cryptolib import (
    PROFILED_LIBRARIES,
    CryptoLibraryProfile,
    profile_for_network,
)
from repro.models.network import FabricSpec, NetworkModel, get_network
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy
from repro.simmpi.transport import FLOW_CUTOFF
from repro.util.units import format_bytes, format_time
from repro.workloads.multipair import MULTIPAIR_CLUSTER, REPLY_BYTES
from repro.workloads.pingpong import PINGPONG_CLUSTER

#: fabrics the model answers for (canonical get_network names)
FABRICS = ("ethernet", "infiniband")

#: a multipair job has at most one pair per core of a node
CORES_PER_NODE = MULTIPAIR_CLUSTER.cores_per_node

#: the multipair window the model answers for
MULTIPAIR_WINDOW = 16


# -- the additive ping-pong model (§V-A) --------------------------------------


def _oneway_time(net: NetworkModel, wire: int) -> float:
    """One solitary *wire*-byte message, as the transport charges it:
    send overhead, NIC service, transfer, wire latency plus protocol
    residual, receive overhead, and the RTS/CTS handshake above the
    eager threshold.

    This is ``net.pingpong_oneway_time(wire)`` wherever that curve
    leaves a positive protocol residual; where it does not (16 B on
    InfiniBand), the transport's charges are the larger answer.
    """
    c = net.wire_costs(wire)
    t = (c.send_overhead + net.nic_service_time(1) + c.transfer + c.tail
         + c.recv_overhead)
    return t if c.eager else t + net.rendezvous_handshake()


@dataclass(frozen=True)
class PingPongBreakdown:
    """Additive model of one encrypted ping-pong direction."""

    network: str
    library: str
    size: int
    baseline_seconds: float  # the plaintext message's one-way time
    wire_seconds: float  # one-way time of the sealed frame (size + 28 B)
    encrypt_seconds: float
    decrypt_seconds: float
    framing_seconds: float  # part of encrypt/decrypt; shown separately

    @property
    def total_seconds(self) -> float:
        return self.encrypt_seconds + self.wire_seconds + self.decrypt_seconds

    @property
    def overhead_percent(self) -> float:
        return (self.total_seconds / self.baseline_seconds - 1.0) * 100.0

    @property
    def crypto_share(self) -> float:
        """Fraction of the total spent in cryptography."""
        return (self.encrypt_seconds + self.decrypt_seconds) / self.total_seconds

    def render(self) -> str:
        lines = [
            f"{format_bytes(self.size)} over {self.network}, {self.library}:",
            f"  network (baseline one-way): {format_time(self.baseline_seconds)}",
            f"  network (sealed, +{WIRE_OVERHEAD} B):    "
            f"{format_time(self.wire_seconds)}",
            f"  encryption:                 {format_time(self.encrypt_seconds)}",
            f"  decryption:                 {format_time(self.decrypt_seconds)}",
            f"    of which per-call framing: {format_time(self.framing_seconds)}",
            f"  => predicted total {format_time(self.total_seconds)} "
            f"(+{self.overhead_percent:.1f}% vs baseline, "
            f"{self.crypto_share * 100:.0f}% of time in crypto)",
        ]
        return "\n".join(lines)


def explain_pingpong(
    network: str, library: str, size: int, key_bits: int = 256
) -> PingPongBreakdown:
    """The paper's additive model of one serially sealed message.

    §V-A: "The running time of an encrypted MPI library consists of (i)
    the encryption-decryption cost, and (ii) the underlying MPI
    communications" — here of the sealed frame, which is 28 bytes
    longer than the plaintext.  This is the simulator's serial
    ping-pong one-way time.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    net = get_network(network)
    profile = profile_for_network(library, net.name, key_bits)
    return PingPongBreakdown(
        network=net.name,
        library=library,
        size=size,
        baseline_seconds=_oneway_time(net, size),
        wire_seconds=_oneway_time(net, size + WIRE_OVERHEAD),
        encrypt_seconds=profile.encrypt_time(size),
        decrypt_seconds=profile.decrypt_time(size),
        framing_seconds=2 * profile.framing_overhead,
    )


def _solitary(net: NetworkModel, profile: CryptoLibraryProfile | None,
              size: int) -> float:
    """One solitary message, plain or serially sealed (§V-A)."""
    if profile is None:
        return _oneway_time(net, size)
    return explain_pingpong(net.name, profile.library, size,
                            profile.key_bits).total_seconds


def crossover_size(network: str, library: str, overhead_target: float = 0.10,
                   key_bits: int = 256) -> int:
    """Largest benchmark size whose predicted overhead stays under
    *overhead_target* — i.e. where encryption stops being 'cheap'.

    Searches the standard OSU size ladder.
    """
    if not 0 < overhead_target < 10:
        raise ValueError(f"odd overhead target {overhead_target}")
    last_ok = 0
    for exp in range(0, 23):  # 1B .. 4MB
        size = 1 << exp
        b = explain_pingpong(network, library, size, key_bits)
        if b.overhead_percent <= overhead_target * 100:
            last_ok = size
    return last_ok


# -- CryptMPI ping-pong --------------------------------------------------------


def _maxmin(caps: list[float], total: float) -> list[float]:
    """Max-min fair rates of flows with rate *caps* sharing *total*."""
    order = sorted(range(len(caps)), key=caps.__getitem__)
    rates = [0.0] * len(caps)
    left = total
    for j, i in enumerate(order):
        share = left / (len(order) - j)
        if caps[i] >= share:
            for k in order[j:]:
                rates[k] = share
            break
        rates[i] = caps[i]
        left -= caps[i]
    return rates


def _pipelined_oneway(net: NetworkModel, profile: CryptoLibraryProfile,
                      size: int, plan: CryptoPlan) -> float:
    """One CryptMPI message, from the sender's isend to the receiver's
    last open, both ranks otherwise idle (the ping-pong)."""
    # not loaded by `import repro.api`; the pipeline's wire format
    from repro.encmpi.pipeline import HEADER_SIZE

    helpers = PINGPONG_CLUSTER.cores_per_node - 1  # beside the rank's core
    cap = helpers if plan.helper_cores is None \
        else min(plan.helper_cores, helpers)
    chunks = [min(plan.chunk_bytes, size - off)
              for off in range(0, size, plan.chunk_bytes)]
    wires = [c + HEADER_SIZE + WIRE_OVERHEAD for c in chunks]
    costs = [net.wire_costs(w) for w in wires]
    flows = [not k.eager or w >= FLOW_CUTOFF for k, w in zip(costs, wires)]
    latency = net.latency

    # Sender: seals on the helpers, chunk i after chunk i - cap (on the
    # rank's own core when cap is 0); the rank's core injects in order.
    sealed: list[float] = []
    injected: list[float] = []
    t = 0.0
    for i, c in enumerate(chunks):
        if cap:
            sealed.append((sealed[i - cap] if i >= cap else 0.0)
                          + profile.encrypt_time(c))
            t = max(t, sealed[i])
        else:
            t += profile.encrypt_time(c)
        t += costs[i].send_overhead + net.nic_service_time(1)
        injected.append(t)

    # Flows start at injection for eager chunks, one latency after the
    # RTS (one latency after injection) for chunk 0, and for rendezvous
    # siblings one latency after the later of their RTS and the
    # receiver posting their receives: chunk 0's arrival plus its
    # receive overhead.  Only full chunks precede the last one, so an
    # eager chunk never precedes a rendezvous one on the route.
    pending = [(injected[i], i) for i in range(len(chunks))
               if costs[i].eager and flows[i]]
    if not costs[0].eager:
        pending.append((injected[0] + 2 * latency, 0))
    pending.sort()

    def posting(chunk0_sent: float) -> float:
        k = costs[0]
        at = chunk0_sent + k.tail + k.recv_overhead
        for i in range(1, len(chunks)):
            if not costs[i].eager:
                pending.append((max(injected[i] + latency, at) + latency, i))
        pending.sort()
        return at

    posted = None if flows[0] else posting(injected[0] + costs[0].transfer)

    # The active flows share the pair capacity, whose limit the flow
    # that found it idle set, max-min fair under their own stream caps.
    ended: dict[int, float] = {}
    active: dict[int, float] = {}  # chunk -> bytes left
    now = limit = 0.0
    while pending or active:
        keys = list(active)
        rates = _maxmin([net.stream_bandwidth(wires[i]) for i in keys],
                        min(limit, net.nic_capacity))
        ends = [now + active[i] / r for i, r in zip(keys, rates)]
        finish = min(ends, default=math.inf)
        if pending and pending[0][0] < finish:
            start, i = pending.pop(0)
            for j, r in zip(keys, rates):
                active[j] -= r * (start - now)
            now = start
            if not active:
                limit = net.stream_bandwidth(wires[i])
            active[i] = float(wires[i])
            continue
        for j, r, end in zip(keys, rates, ends):
            active[j] -= r * (finish - now)
            if end <= finish:
                del active[j]
                ended[j] = finish
        now = finish
        if posted is None and 0 in ended:
            posted = posting(ended[0])

    # Receiver: a chunk completes on arrival (an eager sibling that
    # arrived early, when its receive is posted); the rank's core
    # charges the receive overheads in order, and the opens chain on
    # the helpers like the seals (on the rank's core when cap is 0).
    t = posted
    route = 0.0  # when the route's previous envelope entered matching
    opened: list[float] = []
    for i, c in enumerate(chunks):
        k = costs[i]
        sent = ended[i] if flows[i] else injected[i] + k.transfer
        if k.eager:
            route = arrived = max(sent + k.tail, route)
        else:
            route, arrived = injected[i] + latency, sent + k.tail
        if i:
            t = max(t, arrived) + k.recv_overhead
        if cap:
            opened.append(max(t, opened[i - cap] if i >= cap else t)
                          + profile.decrypt_time(c))
        else:
            t += profile.decrypt_time(c)
    return max([t] + opened)


# -- serial multipair ----------------------------------------------------------


def _processor_sharing(starts: list[float], work: float,
                       rate: float) -> list[float]:
    """Completion times of equal jobs of *work* bytes arriving at
    *starts* (ascending), sharing *rate* equally while active."""
    done: list[float] = []
    left: list[float] = []  # arrival order = completion order
    now, i = starts[0], 0
    while i < len(starts) or left:
        finish = now + left[0] * len(left) / rate if left else math.inf
        start = starts[i] if i < len(starts) else math.inf
        t = min(finish, start)
        if left:
            served = (t - now) * rate / len(left)
            left = [x - served for x in left]
        now = t
        if finish <= start:
            left.pop(0)
            done.append(now)
        else:
            left.append(work)
            i += 1
    return done


def _multipair_window(net: NetworkModel,
                      profile: CryptoLibraryProfile | None, size: int,
                      pairs: int) -> float:
    """One pair's time per window of the OSU multipair test: *pairs*
    senders stream ``MULTIPAIR_WINDOW`` serially sealed messages each,
    then wait for their receiver's reply."""
    enc = dec = 0.0
    wire = size
    if profile is not None:
        enc, dec = profile.encrypt_time(size), profile.decrypt_time(size)
        wire += WIRE_OVERHEAD
    k = net.wire_costs(wire)
    nic = net.nic_service_time(pairs)
    # a sender's step: its own seal and injection, or its turn on the
    # node's shared NIC engine, whichever is slower
    step = max(enc + k.send_overhead + nic, pairs * nic)
    starts = [(i + 1) * step for i in range(MULTIPAIR_WINDOW)]
    if not k.eager:  # the RTS out, the CTS back
        starts = [t + 2 * net.latency for t in starts]
    if wire >= FLOW_CUTOFF:
        # the pair's flows share its slice of the NIC
        rate = min(net.stream_bandwidth(wire), net.nic_capacity / pairs)
        sent = _processor_sharing(starts, wire, rate)
    else:
        sent = [t + k.transfer for t in starts]
    t = 0.0
    for s in sent:  # the receiver opens in order
        t = max(t, s + k.tail) + k.recv_overhead + dec
    return t + _solitary(net, profile, REPLY_BYTES)


# -- faults --------------------------------------------------------------------


def _retry_overhead(net: NetworkModel, profile: CryptoLibraryProfile | None,
                    size: int, faults: FaultPlan,
                    policy: ResiliencePolicy | None) -> float:
    """Expected extra one-way time of a message that each delivery
    loses with the plan's drop rate (plus its corruption rate when
    sealed): ``sum_k loss^k * (retry_delay(k) + resend)``.

    *resend* is the transport's retry transit: tail plus transfer for
    an eager message, one latency for a rendezvous RTS.  A corrupted
    sealed frame costs, on top, what the NACK path charges: the open
    that failed, the NACK's latency, the re-seal, and the receive
    overhead of the copy.  A pipelined message is charged like its
    serial frame, one envelope: its chunks' retries overlap the
    pipeline, and no grid cell checks that case.
    """
    # plain MPI silently accepts corruption (no retransmit); encrypted
    # MPI NACKs it, so corruption costs a resend too
    corrupt = faults.corrupt if profile is not None else 0.0
    loss = faults.drop + corrupt
    if not loss:
        return 0.0
    if policy is None:
        raise ValueError(
            "faults with a nonzero loss rate deadlock the simulated "
            "exchange without a retransmission policy; pass "
            "resilience=ResiliencePolicy(...)"
        )
    k = net.wire_costs(size if profile is None else size + WIRE_OVERHEAD)
    resend = k.tail + k.transfer if k.eager else net.latency
    nack = 0.0
    if corrupt:
        nack = (profile.decrypt_time(size) + net.latency
                + profile.encrypt_time(size) + k.recv_overhead)
    extra = 0.0
    for attempt in range(1, policy.max_retries + 1):
        extra += loss ** (attempt - 1) * (
            loss * (policy.retry_delay(attempt) + resend) + corrupt * nack)
    return extra


# -- the query -----------------------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    """One analytical answer."""

    latency: float  # seconds per message (one-way / per-window-slot)
    goodput: float  # aggregate plaintext bytes/s across all pairs
    per_pair_goodput: float
    family: str  # "fabric/library", or "fabric/plain" for the baseline


def _answered_fabric(fabric: str | FabricSpec) -> NetworkModel:
    """The model of the preset *fabric* names; a ValueError naming the
    answered domain for a noisy spec (jitter, wobble or loss), another
    preset, or an unknown name."""
    domain = ("the model is calibrated for the noise-free fabrics "
              + ", ".join(FABRICS))
    try:
        spec = FabricSpec.coerce(fabric)
    except KeyError:
        raise ValueError(f"unknown fabric {fabric!r}; {domain}") from None
    if spec.noisy:
        raise ValueError(f"fabric {spec.token()!r} has jitter, wobble "
                         f"or loss; {domain}")
    if spec.base not in FABRICS:
        raise ValueError(f"model not calibrated for fabric "
                         f"{spec.base!r}; {domain}")
    return get_network(spec.base)


def predict(
    *,
    library: str | None = None,
    fabric: str | FabricSpec = "ethernet",
    size: int = 1,
    pairs: int = 1,
    plan: CryptoPlan | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> Prediction:
    """Answer one benchmark cell analytically: no simulation.

    ``pairs == 1`` is the solitary ping-pong (latency = mean one-way
    time); ``pairs > 1`` is the OSU multipair test with a window of
    ``MULTIPAIR_WINDOW`` (latency = one pair's per-message interval).
    *library* None is the plaintext baseline; *plan* selects serial or
    cryptmpi sealing (its library is the *library* argument's);
    *faults* with *resilience* add the expected retransmission time.
    *fabric* is a noise-free ``ethernet`` or ``infiniband`` preset.

    Refused with a ValueError naming the cause: multipair with a
    pipelined plan (the pairs then share the node's helper cores, which
    the model does not schedule) and multipair with faults (the
    simulated pairs desynchronize under loss, so there is no aggregate
    to validate against).
    """
    net = _answered_fabric(fabric)
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if not 1 <= pairs <= CORES_PER_NODE:
        raise ValueError(
            f"pairs must be in [1, {CORES_PER_NODE}], got {pairs}"
        )
    if library is not None and library not in PROFILED_LIBRARIES:
        raise ValueError(
            f"unknown library {library!r}; profiled: {PROFILED_LIBRARIES}"
        )
    if plan is not None and library is None:
        raise ValueError("a crypto plan needs a library (library=None "
                         "predicts the plaintext baseline)")
    pipelined = plan is not None and plan.pipelined
    if pairs > 1 and pipelined:
        raise ValueError(
            "multipair with a pipelined plan is not modeled: the pairs "
            "share the node's helper cores; use pairs=1 or a serial plan"
        )
    if pairs > 1 and faults is not None:
        raise ValueError(
            "multipair with faults is not modeled: under loss the "
            "pairs' timed windows desynchronize, so the simulated "
            "aggregate is no reference; use pairs=1"
        )
    profile = None if library is None else profile_for_network(library,
                                                               net.name)
    if pairs > 1:
        latency = _multipair_window(net, profile, size, pairs) \
            / MULTIPAIR_WINDOW
    elif pipelined:
        latency = _pipelined_oneway(net, profile, size, plan)
    else:
        latency = _solitary(net, profile, size)
    if faults is not None:
        latency += _retry_overhead(net, profile, size, faults, resilience)

    per_pair = size / latency
    return Prediction(
        latency=latency,
        goodput=pairs * per_pair,
        per_pair_goodput=per_pair,
        family=f"{net.name}/{library or 'plain'}",
    )

"""The transport: moves envelopes between ranks and charges virtual time.

Three paths; each message's route class picks one, once:

- **intra-node (shm)** — sender overhead, then delivery after the
  shared-memory latency + copy time;
- **inter-node eager** (size ≤ fabric eager threshold) — sender CPU
  overhead (descriptor + buffer copy), NIC engine occupancy (the
  per-message injection cost that produces message-rate contention),
  then payload transfer and delivery after wire latency + the per-size
  protocol residual.  The rank parks for its whole injection: the NIC
  turn after the overhead and the grant that starts the service time
  are engine steps, and the rank resumes once, when the service ends;
- **inter-node rendezvous** (above the threshold) — an RTS header
  travels to the receiver and enters the matching engine; when a recv
  matches it, the receive side calls the envelope's
  ``rendezvous_trigger`` (:meth:`Transport._rendezvous_trigger`): a
  CTS returns to the sender and the payload transfer begins.  The
  sender's request completes when the payload has left its buffer
  (flow completion), the receiver's when the payload arrives (the
  envelope's ``data_ready`` event).  Its RTS is injected like an eager
  message.

Each step after injection is a transport method handed the envelope
as an argument, never a closure over it, so a delivered envelope is
freed by reference counting rather than left to the cyclic collector.

Payload transfers of at least :data:`FLOW_CUTOFF` bytes run through the
max-min fair flow network (sharing NIC egress/ingress and the per-pair
stream capacity); smaller ones are charged their unloaded serialization
time directly, since for them the NIC message engine — not bandwidth —
is the contended resource.

Delivery on each ordered (src, dst) route is chained FIFO — an
envelope enters the receiver's matching engine only after the
envelope sent before it on that route has left the chain — which gives
MPI's non-overtaking guarantee the same way an in-order fabric does (an
RTS cannot pass the previous message's last byte on the wire).  Each
envelope's place in the chain is a :class:`_RouteLink`, a slotted
record that queues every delivery attempt blocked behind it, in order.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.des.process import PARK, Scheduler, SimEvent, _Sleep
from repro.models.network import WireCosts
from repro.simmpi.matching import MatchingEngine
from repro.simmpi.message import Envelope
from repro.simmpi.topology import ClusterRuntime, Node

#: Messages at or above this many wire bytes go through the fluid flow
#: network; below it bandwidth sharing is irrelevant (the NIC message
#: engine dominates) and the flow machinery would only cost time.
FLOW_CUTOFF = 2048


class _RouteLink:
    """One envelope's place in its route's FIFO delivery chain.

    The envelope may enter the matching engine once ``prev``, the link
    of the envelope sent before it on the route, is released.  Until
    then every delivery attempt that reaches it (the first, and each
    retransmission its timer makes while it is blocked) waits in
    ``prev.waiting``, and all of them run, in order, on the release.
    """

    __slots__ = ("prev", "released", "waiting")

    def __init__(self, prev: "_RouteLink | None") -> None:
        self.prev = prev
        self.released = False
        #: envelopes whose delivery attempts wait for this release
        self.waiting: list[Envelope] | None = None


class Transport:
    """One job's message mover: the three send paths, a matching engine
    per rank, and per ordered route the last :class:`_RouteLink` of its
    delivery chain, with the optional fault injector and reliability
    layer applied at delivery."""

    def __init__(self, scheduler: Scheduler, cluster: ClusterRuntime,
                 recorder=None):
        self.sched = scheduler
        self.cluster = cluster
        self.net = cluster.network
        #: noisy fabrics (repro.models.network.NoiseModel) perturb each
        #: inter-node delivery leg; clean models have no such method
        self._perturb = getattr(self.net, "perturb_delay", None)
        #: optional TraceRecorder; its send_posted events are the single
        #: record of *all* traffic (point-to-point and
        #: collective-internal alike)
        self.recorder = recorder
        #: optional FaultInjector applied at delivery time
        self.fault_injector = None
        #: optional ReliabilityManager (repro.simmpi.resilience) armed
        #: by run_program(resilience=...); None = the historical
        #: fire-and-forget transport, byte-identical behaviour
        self.resilience = None
        self.engines: list[MatchingEngine] = [
            MatchingEngine(r, recorder) for r in range(cluster.nranks)
        ]
        #: per ordered (src, dst) route: the link of the last envelope
        #: sent, chaining FIFO delivery order
        self._route_tail: dict[tuple[int, int], _RouteLink] = {}

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def co_isend(self, env: Envelope, on_sent: Callable[[], None]):
        """Inject *env*; runs in the sending rank's process context.

        Suspends the caller only for the injection overhead.  *on_sent*
        fires when the send buffer is reusable (eager: immediately after
        injection; rendezvous: when the payload transfer completes).
        """
        size = env.wire_bytes
        nodes = self.cluster.rank_nodes
        node = nodes[env.src]
        if node is nodes[env.dst]:
            costs = None
            path = "shm"
        else:
            costs = self.net.wire_costs(size)
            path = "eager" if costs.eager else "rendezvous"
        rec = self.recorder
        if rec is not None:
            rec.emit(
                "transport", "send_posted", env.src, dst=env.dst,
                tag=env.tag, bytes=env.payload_bytes, wire=size, path=path,
            )
        # Chain this envelope behind the route's previous one so FIFO
        # order is decided by *send* order, not by which transfer
        # finishes first.
        route = (env.src, env.dst)
        tails = self._route_tail
        env.link = tails[route] = _RouteLink(tails.get(route))
        if self.resilience is not None:
            self.resilience.track(env)
        if costs is None:
            yield from self._co_send_shm(env, size, on_sent)
        else:
            yield from self._co_send_wire(env, size, node, costs, on_sent)

    # -- shared memory ---------------------------------------------------

    def _co_send_shm(self, env: Envelope, size: int, on_sent: Callable[[], None]):
        net = self.net
        yield _Sleep(net.shm_msg_overhead)
        env.info["recv_overhead"] = net.shm_msg_overhead
        self._emit_wire_start(env, size)
        self._deliver_after(env, net.shm_delivery_delay(size))
        on_sent()

    # -- inter-node: eager and rendezvous -----------------------------------

    def _co_send_wire(self, env: Envelope, size: int, node: Node,
                      costs: WireCosts, on_sent: Callable[[], None]):
        sched = self.sched
        node.active_senders += 1
        # After the send overhead the NIC turn runs as an engine step,
        # and _nic_service wakes the rank when its service time ends.  A
        # failed job closes the parked generator without cleanup; each
        # job builds its own NIC.
        sched.engine.schedule(costs.send_overhead, node.nic_engine.request,
                              self._nic_service, node, sched.current())
        yield PARK
        node.nic_engine.release()
        node.active_senders -= 1
        info = env.info
        # matching, plus the copy-out of an eager payload
        info["recv_overhead"] = costs.recv_overhead
        if not costs.eager:
            info["data_ready"] = SimEvent(self.sched)
            info["on_sent"] = on_sent  # fires from _rendezvous_drained
            info["rendezvous_trigger"] = self._rendezvous_trigger
            # The RTS header is a small control message: it enters the
            # receiver's matching engine after one wire latency.
            self._deliver_after(env, self.net.latency)
            return
        self._emit_wire_start(env, size)
        if size >= FLOW_CUTOFF:
            flow_done = self._start_flow(env, size)
            flow_done.callbacks.append(
                lambda _ev: self._deliver_after(env, costs.tail)
            )
        else:
            self._deliver_after(env, costs.transfer + costs.tail)
        on_sent()

    def _nic_service(self, node: Node, proc) -> None:
        """(Engine context) the NIC is granted to *proc*'s injection: it
        resumes after the service time at the current sender count."""
        sched = self.sched
        sched.engine.schedule(self.net.nic_service_time(node.active_senders),
                              sched.wake_now, proc)

    def _rendezvous_trigger(self, env: Envelope) -> None:
        """A recv matched the RTS (called from any context): the CTS
        travels back to the sender, one latency."""
        self.sched.engine.schedule(self.net.latency, self._rendezvous_transfer, env)

    def _rendezvous_transfer(self, env: Envelope) -> None:
        """The CTS reached the sender: the payload flows."""
        size = env.wire_bytes
        self._emit_wire_start(env, size)
        self._start_flow(env, size).callbacks.append(
            partial(self._rendezvous_drained, env)
        )

    def _rendezvous_drained(self, env: Envelope, _ev: SimEvent) -> None:
        """The flow drained the sender's buffer, which completes the
        send; the receiver sees the data one more latency plus the
        protocol residual later."""
        env.info.pop("on_sent")()
        self.sched.engine.schedule(
            self.net.wire_costs(env.wire_bytes).tail,
            self._rendezvous_arrived, env,
        )

    def _rendezvous_arrived(self, env: Envelope) -> None:
        rec = self.recorder
        if rec is not None:
            rec.emit("transport", "wire_end", env.dst, src=env.src,
                     tag=env.tag, wire=env.wire_bytes)
        env.info["data_ready"].succeed(None)

    # -- shared pieces -----------------------------------------------------

    def _start_flow(self, env: Envelope, size: int) -> SimEvent:
        cap = self.net.stream_bandwidth(size)
        if size >= FLOW_CUTOFF:
            nodes = self.cluster.rank_nodes
            constraints = (
                nodes[env.src].egress,
                nodes[env.dst].ingress,
                self.cluster.pair_capacity(env.src, env.dst, size),
            )
            return self.cluster.flownet.transfer(size, cap, constraints)
        done = SimEvent(self.sched)
        self.sched.engine.schedule(size / cap if size else 0.0, done.succeed, None)
        return done

    def _deliver_after(self, env: Envelope, delay: float) -> None:
        """Schedule delivery *delay* from now, behind the route's chain."""
        if self._perturb is not None and not self.cluster.same_node(
            env.src, env.dst
        ):
            # Jitter/wobble the wire leg (shm stays clean).  Before the
            # resilience arm, so retransmission timers budget for the
            # perturbed flight time; retries re-enter here and get a
            # fresh draw.  FIFO order survives regardless — delivery is
            # chained on the route links, not on schedule order.
            delay = self._perturb(delay)
        if self.resilience is not None:
            self.resilience.arm(env, delay)
        self.sched.engine.schedule(delay, self._try_deliver, env)

    def _try_deliver(self, env: Envelope) -> None:
        link = env.link
        prev = None if link is None else link.prev
        if prev is None or prev.released:
            self._deliver_now(env)
        elif prev.waiting is None:
            prev.waiting = [env]
        else:
            prev.waiting.append(env)

    def _deliver_now(self, env: Envelope) -> None:
        link = env.link
        if link is not None:
            link.prev = None  # release the chain reference
        rec = self.recorder
        mgr = self.resilience
        if mgr is not None and not mgr.should_deliver(env):
            # A stale retransmission of an already-delivered (or
            # abandoned) message: discard it without touching matching.
            self._finish_delivery(env)
            return
        if self.fault_injector is not None and not env.info.get("rd_exempt"):
            outs = self.fault_injector.apply(env)
        else:
            outs = [env]
        delivered = False
        for out in outs:
            if rec is not None:
                self._emit_deliver(rec, out)
            self.engines[out.dst].deliver(out)
            if out is env:
                delivered = True
        if mgr is None:
            self._release(link)
            return
        if delivered:
            self._finish_delivery(env)
            mgr.on_delivered(env)
        # else: lost on the wire — the retransmission timer will fire,
        # and the route chain stays held so FIFO order survives retries.

    def _finish_delivery(self, env: Envelope) -> None:
        """Release the envelope's chain link (retry clones have none)."""
        link = env.link
        if link is not None and not link.released:
            self._release(link)

    def _release(self, link: _RouteLink) -> None:
        """The link's envelope left the chain: run every delivery
        attempt waiting behind it, in the order they arrived."""
        link.released = True
        waiting = link.waiting
        if waiting is not None:
            link.waiting = None
            for env in waiting:
                self._deliver_now(env)

    # -- structured-event helpers ------------------------------------------

    def _emit_wire_start(self, env: Envelope, size: int) -> None:
        """The payload starts crossing the fabric (or the shm copy)."""
        rec = self.recorder
        if rec is not None:
            rec.emit("transport", "wire_start", env.src, dst=env.dst,
                     tag=env.tag, wire=size)

    def _emit_deliver(self, rec, env: Envelope) -> None:
        # For rendezvous only the RTS header enters the matching engine
        # here; the payload's wire_end fires when the data arrives.
        kind = "rts_delivered" if "rendezvous_trigger" in env.info else "wire_end"
        rec.emit("transport", kind, env.dst, src=env.src,
                 tag=env.tag, wire=env.wire_bytes)

"""Reliable delivery for the simulated transport: ack / retransmit.

The paper's integrity guarantee *detects* tampering (AES-GCM auth) but
does not recover from it — an ``auth_fail`` or a dropped envelope is
fatal to the job.  This layer adds the recovery story a production
encrypted MPI needs (CryptMPI-style), entirely in virtual time:

- every envelope injected while a :class:`ResiliencePolicy` is armed
  gets a delivery id and a cancellable retransmission timer;
- a delivery schedules a (reliable) ack back to the sender one control
  latency later, which disarms the timer;
- a timer that fires first retransmits the same envelope and re-arms
  with deterministic backoff — this recovers injector ``DROP``\\ s;
- the encrypted layer turns ``auth_fail`` / replay-guard rejects into a
  NACK: the sender re-seals the original plaintext **with a fresh
  nonce** (so the sanitizer's nonce ledger and the receiver's
  ``ReplayGuard`` both stay happy) and retransmits, while the receiver
  re-posts a receive pinned to the retried message's delivery id;
- when the retry budget is exhausted the policy escalates: ``"fail"``
  raises :class:`ResilienceExhausted`, ``"drop"`` abandons the message
  (the receiver sees the original error / a missing message), and
  ``"plain_fallback"`` performs one final delivery over an idealized
  reliable control path that the fault injector cannot touch.

Everything is scheduled on the deterministic DES engine from
deterministic state, so two runs of the same faulty job are
bit-identical — the property the ``resilience`` experiment's
artifact gate (``make check-artifacts``) pins.

With no policy armed, none of this code runs and the transport behaves
byte-identically to before (golden-trace digests unchanged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.simmpi.message import Envelope
from repro.util.specs import FLOAT, INT, Grammar, Spec, choice

if TYPE_CHECKING:
    from repro.des.process import Scheduler
    from repro.simmpi.transport import Transport

#: valid ``ResiliencePolicy.backoff`` modes
BACKOFF_MODES = ("exponential", "fixed")

#: valid ``ResiliencePolicy.escalation`` modes
ESCALATIONS = ("fail", "drop", "plain_fallback")


class ResilienceExhausted(RuntimeError):
    """A message exhausted its retry budget under ``escalation="fail"``."""


@dataclass(frozen=True)
class ResiliencePolicy(Spec):
    """Declarative retry discipline for the reliable-delivery layer.

    ``timeout`` is the virtual-time wait (seconds) before the first
    retransmission, counted from the expected delivery instant;
    ``backoff`` grows subsequent waits (``"exponential"`` multiplies by
    ``backoff_factor`` per attempt, ``"fixed"`` repeats ``timeout``).
    ``max_retries`` bounds retransmissions per message; ``escalation``
    picks what happens when the budget runs out.
    """

    grammar = Grammar(
        "resilience",
        keys={"retries": ("max_retries", INT),
              "max_retries": ("max_retries", INT),
              "timeout": ("timeout", FLOAT),
              "backoff": ("backoff", choice(BACKOFF_MODES)),
              "escalation": ("escalation", choice(ESCALATIONS)),
              "factor": ("backoff_factor", FLOAT),
              "backoff_factor": ("backoff_factor", FLOAT)},
    )

    max_retries: int = 3
    timeout: float = 1e-3
    backoff: str = "exponential"
    escalation: str = "fail"
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(
                f"timeout must be a finite number > 0, got {self.timeout}"
            )
        if self.backoff not in BACKOFF_MODES:
            raise ValueError(
                f"backoff must be one of {BACKOFF_MODES}, got {self.backoff!r}"
            )
        if self.escalation not in ESCALATIONS:
            raise ValueError(
                f"escalation must be one of {ESCALATIONS}, "
                f"got {self.escalation!r}"
            )
        if not (math.isfinite(self.backoff_factor)
                and self.backoff_factor >= 1.0):
            raise ValueError(
                f"backoff_factor must be a finite number >= 1.0, "
                f"got {self.backoff_factor}"
            )

    def retry_delay(self, attempt: int) -> float:
        """Wait (virtual seconds) before retransmission *attempt* (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        if self.backoff == "fixed":
            return self.timeout
        return self.timeout * self.backoff_factor ** (attempt - 1)

    def retry_schedule(self) -> tuple[float, ...]:
        """The full deterministic backoff schedule, one wait per retry."""
        return tuple(self.retry_delay(k) for k in range(1, self.max_retries + 1))


def parse_resilience_policy(spec: str) -> ResiliencePolicy:
    """Parse ``"retries=3,timeout=0.001,backoff=exponential,..."``.

    Keys: ``retries`` (or ``max_retries``), ``timeout`` (seconds),
    ``backoff``, ``escalation`` and ``factor`` (or ``backoff_factor``).
    """
    return ResiliencePolicy.parse(spec)


@dataclass(frozen=True)
class ResilienceReport:
    """Job-wide tallies of the reliability layer (rides on the result)."""

    policy: ResiliencePolicy
    #: logical messages tracked (one per transport-level send)
    tracked: int
    #: retransmissions performed (timeouts + NACK-triggered, all ranks)
    retransmits: int
    #: receiver-side NACKs (auth failures + replay rejects)
    nacks: int
    #: delivery acknowledgements received by senders
    acks: int
    #: messages that exhausted their retry budget
    gave_up: int
    #: exhausted messages recovered over the plain_fallback control path
    fallbacks: int


@dataclass(frozen=True)
class RecvDecision:
    """What the receiver should do after reporting a failed receive."""

    #: ``"retry"`` (re-post and wait again), ``"fail"`` (raise
    #: ResilienceExhausted) or ``"drop"`` (re-raise the original error)
    outcome: str
    #: delivery id the re-posted receive must match (None = any copy)
    require_id: Optional[int] = None


class _Flight:
    """Mutable tracking record of one in-flight logical message."""

    __slots__ = ("env", "reseal", "attempts", "epoch", "delivered", "done",
                 "timer")

    def __init__(self, env: Envelope, reseal: Optional[Callable]) -> None:
        self.env = env
        self.reseal = reseal
        #: retransmissions performed so far (sender timeouts + NACKs)
        self.attempts = 0
        #: bumped on every retransmission; stale timer/ack callbacks
        #: carry the epoch they were scheduled under and no-op on mismatch
        self.epoch = 0
        #: the current copy reached the receiver's matching engine
        self.delivered = False
        #: terminal: the message was abandoned (escalation drop/fail)
        self.done = False
        #: EventHandle (Engine.schedule_at) of the armed retransmission
        #: timer, cancelled by the ack or a re-arm
        self.timer = None


class ReliabilityManager:
    """Per-job reliable-delivery state machine, owned by the Transport.

    All methods run inside the single-threaded DES handoff, so there is
    no locking; determinism follows from the engine's deterministic
    event ordering and the integer delivery-id sequence.
    """

    def __init__(self, scheduler: "Scheduler", transport: "Transport",
                 policy: ResiliencePolicy, recorder=None) -> None:
        self.sched = scheduler
        self.transport = transport
        self.policy = policy
        self.recorder = recorder
        self._flights: dict[int, _Flight] = {}
        self._next_id = 0
        # job-wide tallies, available even without a TraceRecorder
        self.tracked = 0
        self.retransmits = 0
        self.nacks = 0
        self.acks = 0
        self.gave_up = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    # sender side (transport hooks)
    # ------------------------------------------------------------------

    def track(self, env: Envelope) -> None:
        """Register a freshly injected envelope; called from isend."""
        rd_id = self._next_id
        self._next_id += 1
        env.info["rd_id"] = rd_id
        self._flights[rd_id] = _Flight(env, env.info.get("reseal"))
        self.tracked += 1

    def arm(self, env: Envelope, delivery_delay: float) -> None:
        """(Re-)arm the retransmission timer around a scheduled delivery.

        The deadline is the expected delivery instant plus the backoff
        wait for the *next* attempt, so slow transfers (rendezvous
        flows) do not trip spurious retries.
        """
        rd_id = env.info.get("rd_id")
        flight = self._flights.get(rd_id)
        if flight is None or flight.done:
            return
        if flight.timer is not None:
            flight.timer.cancel()
        wait = delivery_delay + self.policy.retry_delay(flight.attempts + 1)
        engine = self.sched.engine
        flight.timer = engine.schedule_at(
            engine.now + wait, self._on_timeout, rd_id, flight.epoch
        )

    def should_deliver(self, env: Envelope) -> bool:
        """Suppress stale copies of an already-delivered/abandoned message."""
        flight = self._flights.get(env.info.get("rd_id"))
        if flight is None:
            return True
        return not (flight.delivered or flight.done)

    def on_delivered(self, env: Envelope) -> None:
        """A copy reached the matching engine; send the (reliable) ack."""
        rd_id = env.info.get("rd_id")
        flight = self._flights.get(rd_id)
        if flight is None or flight.done:
            return
        flight.delivered = True
        self.sched.engine.schedule(
            self._control_latency(flight.env), self._on_ack, rd_id, flight.epoch
        )

    # ------------------------------------------------------------------
    # receiver side (encrypted layer hook)
    # ------------------------------------------------------------------

    def on_recv_failure(self, env: Optional[Envelope], rank: int,
                        local_attempts: int, reason: str) -> RecvDecision:
        """A received copy failed auth / replay; NACK and decide.

        ``reason`` is ``"auth_fail"`` or ``"replay"``; *local_attempts*
        counts this receive's consecutive failures (caps the cases with
        no flight record, e.g. injector-duplicated copies).
        """
        self.nacks += 1
        rd_id = env.info.get("rd_id") if env is not None else None
        flight = self._flights.get(rd_id) if rd_id is not None else None
        rec = self.recorder
        if rec is not None:
            rec.emit(
                "transport", "nack", rank,
                src=env.src if env is not None else -1,
                tag=env.tag if env is not None else -1,
                reason=reason,
            )
        if reason == "replay" or flight is None or flight.reseal is None:
            # A replayed duplicate was rejected (the legitimate copy is
            # its own flight) or no reseal closure exists — there is
            # nothing to retransmit; re-post and wait for the next copy,
            # within the same budget.
            if local_attempts > self.policy.max_retries:
                return self._give_up_recv(flight, env, reason)
            return RecvDecision("retry", require_id=None)
        if flight.attempts >= self.policy.max_retries:
            return self._give_up_recv(flight, env, reason)
        flight.attempts += 1
        flight.epoch += 1
        flight.delivered = False
        attempt = flight.attempts
        self._note_retry(env, attempt, reason)
        frame, seal_dur = flight.reseal()
        clone = self._retry_clone(env, frame, rd_id)
        flight.env = clone
        delay = (
            self._control_latency(env)          # the NACK travels back
            + self.policy.retry_delay(attempt)  # deterministic backoff
            + seal_dur                          # fresh-nonce re-seal
            + self._resend_delay(env)           # wire transit of the retry
        )
        self.transport._deliver_after(clone, delay)
        return RecvDecision("retry", require_id=rd_id)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _retry_clone(self, env: Envelope, frame, rd_id: int) -> Envelope:
        """A retransmission envelope: same route/identity, new frame.

        The clone carries no rendezvous machinery — a retransmission is
        delivered directly (the payload already exists on the sender) —
        and completes the re-posted receive on match.
        """
        clone = Envelope(
            src=env.src, dst=env.dst, tag=env.tag, comm_id=env.comm_id,
            payload=frame, wire_bytes=env.wire_bytes,
            payload_bytes=env.payload_bytes,
        )
        clone.info["rd_id"] = rd_id
        clone.info["recv_overhead"] = env.info.get("recv_overhead", 0.0)
        return clone

    def _on_timeout(self, rd_id: int, epoch: int) -> None:
        flight = self._flights.get(rd_id)
        if (flight is None or flight.done or flight.delivered
                or flight.epoch != epoch):
            return
        flight.timer = None
        env = flight.env
        if flight.attempts >= self.policy.max_retries:
            self._escalate_send(flight, env)
            return
        flight.attempts += 1
        flight.epoch += 1
        self._note_retry(env, flight.attempts, "timeout")
        # Retransmit the same envelope: its payload was never seen by
        # the receiver (the copy was lost), so no re-seal is needed and
        # rendezvous state stays intact.  The delivery passes the fault
        # injector again and re-arms the timer via _deliver_after.
        self.transport._deliver_after(env, self._resend_delay(env))

    def _escalate_send(self, flight: _Flight, env: Envelope) -> None:
        """Retry budget exhausted on the sender (timeout) path."""
        self.gave_up += 1
        self._emit_gave_up(env, flight.attempts, "timeout")
        if self.policy.escalation == "plain_fallback":
            self.fallbacks += 1
            flight.epoch += 1
            flight.delivered = False
            env.info["rd_exempt"] = True
            self.transport._deliver_after(env, self._resend_delay(env))
            return
        flight.done = True
        # Unblock the route chain so later messages are not held forever
        # behind an abandoned one.
        self.transport._finish_delivery(env)
        if self.policy.escalation == "fail":
            raise ResilienceExhausted(
                f"message {env.src}->{env.dst} tag={env.tag} undelivered "
                f"after {flight.attempts} retransmissions "
                f"(escalation='fail')"
            )

    def _give_up_recv(self, flight: Optional[_Flight], env: Optional[Envelope],
                      reason: str) -> RecvDecision:
        """Retry budget exhausted on the receiver (NACK) path."""
        self.gave_up += 1
        attempts = flight.attempts if flight is not None else self.policy.max_retries
        if env is not None:
            self._emit_gave_up(env, attempts, reason)
        can_fallback = (
            self.policy.escalation == "plain_fallback"
            and flight is not None
            and flight.reseal is not None
            and env is not None
        )
        if not can_fallback:
            if flight is not None:
                flight.done = True
            if self.policy.escalation == "fail":
                return RecvDecision("fail")
            return RecvDecision("drop")
        # One final delivery over the reliable control path: re-sealed
        # (the delivered copy was corrupted in place) and exempt from
        # the fault injector.
        self.fallbacks += 1
        flight.epoch += 1
        flight.delivered = False
        frame, seal_dur = flight.reseal()
        clone = self._retry_clone(env, frame, env.info["rd_id"])
        clone.info["rd_exempt"] = True
        flight.env = clone
        delay = self._control_latency(env) + seal_dur + self._resend_delay(env)
        self.transport._deliver_after(clone, delay)
        return RecvDecision("retry", require_id=env.info["rd_id"])

    def _on_ack(self, rd_id: int, epoch: int) -> None:
        flight = self._flights.get(rd_id)
        if (flight is None or flight.done or not flight.delivered
                or flight.epoch != epoch):
            return
        if flight.timer is not None:
            flight.timer.cancel()
            flight.timer = None
        self.acks += 1
        rec = self.recorder
        if rec is not None:
            env = flight.env
            rec.emit("transport", "ack", env.src, dst=env.dst, tag=env.tag,
                     attempts=flight.attempts)

    def _note_retry(self, env: Envelope, attempt: int, reason: str) -> None:
        self.retransmits += 1
        rec = self.recorder
        if rec is not None:
            rec.emit("transport", "retry", env.src, dst=env.dst, tag=env.tag,
                     attempt=attempt, reason=reason)

    def _emit_gave_up(self, env: Envelope, attempts: int, reason: str) -> None:
        rec = self.recorder
        if rec is not None:
            rec.emit("transport", "gave_up", env.src, dst=env.dst,
                     tag=env.tag, attempts=attempts,
                     action=self.policy.escalation, reason=reason)

    def _control_latency(self, env: Envelope) -> float:
        """One-way latency of a small control message (ack / nack)."""
        net = self.transport.net
        if self.transport.cluster.same_node(env.src, env.dst):
            return net.shm_delivery_delay(0)
        return net.latency

    def _resend_delay(self, env: Envelope) -> float:
        """Wire transit charged to a retransmission.

        Retries bypass the sender-CPU/NIC occupancy model (they are
        issued by the transport's progress machinery, not the rank) and
        are charged latency plus unloaded serialization.  A rendezvous
        envelope's retry re-sends only the small RTS header.
        """
        net = self.transport.net
        if "rendezvous_trigger" in env.info:
            return net.latency
        wire = env.wire_bytes
        if self.transport.cluster.same_node(env.src, env.dst):
            return net.shm_msg_overhead + net.shm_delivery_delay(wire)
        costs = net.wire_costs(wire)
        return costs.tail + costs.transfer

    def drained(self) -> None:
        """The job's engine drained, so nothing can resend: free every
        flight, with its envelope, reseal closure and plaintext.  (A
        flight must outlive its ack while the job runs: a NACK can
        follow the ack, and :meth:`should_deliver` reads the flight to
        drop stale copies.)  The tallies stay for :meth:`report`."""
        self._flights.clear()

    def report(self) -> ResilienceReport:
        """Frozen job-wide summary (attached to SimResult/JobResult)."""
        return ResilienceReport(
            policy=self.policy,
            tracked=self.tracked,
            retransmits=self.retransmits,
            nacks=self.nacks,
            acks=self.acks,
            gave_up=self.gave_up,
            fallbacks=self.fallbacks,
        )

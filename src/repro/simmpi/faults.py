"""Fault injection: an adversary (or flaky fabric) inside the simulator.

A :class:`FaultInjector` installed on the transport sees every envelope
just before delivery and may corrupt, duplicate, or drop it — the
threat model the paper's integrity guarantee is *for*.  End-to-end
tests use it to show that encrypted MPI detects corruption that plain
MPI silently accepts, and that replay protection catches duplicates.

Actions are expressed per message via a policy callable; deterministic
policies keep simulations reproducible.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.simmpi.message import Envelope, OpaquePayload
from repro.util.specs import FRACTION, INT, Grammar, Spec


class FaultAction(enum.Enum):
    DELIVER = "deliver"  # untouched
    CORRUPT = "corrupt"  # flip a payload bit
    DUPLICATE = "duplicate"  # deliver twice
    DROP = "drop"  # never delivered


Policy = Callable[[Envelope], FaultAction]


@dataclass
class FaultInjector:
    """Applies a policy to each delivered envelope and keeps a ledger."""

    policy: Policy
    corrupt_bit: int = 0  # bit index flipped within the first byte span
    injected: dict[FaultAction, int] = field(
        default_factory=lambda: {a: 0 for a in FaultAction}
    )
    #: DUPLICATE verdicts on rendezvous RTS headers, which deliver only
    #: once — counted here (and as DELIVER in the ledger), never as an
    #: injected duplicate
    rts_duplicates_skipped: int = 0

    def apply(self, env: Envelope) -> list[Envelope]:
        """Returns the envelopes to actually deliver (0, 1 or 2)."""
        action = self.policy(env)
        if action is FaultAction.DUPLICATE and "rendezvous_trigger" in env.info:
            # An RTS header cannot be meaningfully duplicated (its
            # transfer state is single-shot); deliver it once and keep
            # the ledger honest — the envelope was delivered, not
            # duplicated.
            self.rts_duplicates_skipped += 1
            self.injected[FaultAction.DELIVER] += 1
            return [env]
        self.injected[action] += 1
        if action is FaultAction.DELIVER:
            return [env]
        if action is FaultAction.DROP:
            return []
        if action is FaultAction.DUPLICATE:
            clone = Envelope(
                src=env.src,
                dst=env.dst,
                tag=env.tag,
                comm_id=env.comm_id,
                payload=env.payload,
                wire_bytes=env.wire_bytes,
                payload_bytes=env.payload_bytes,
            )
            clone.info["recv_overhead"] = env.info.get("recv_overhead", 0.0)
            return [env, clone]
        if action is FaultAction.CORRUPT:
            env.payload = _flip_bit(env.payload, self.corrupt_bit)
            return [env]
        raise AssertionError(f"unhandled action {action}")


def _flip_bit(payload, bit_index: int):
    if isinstance(payload, OpaquePayload):
        # Corrupt the materialized frame; the simulation keeps it as bytes.
        payload = payload.to_bytes()
    if not payload:
        return payload
    data = bytearray(payload)
    byte_i = (bit_index // 8) % len(data)
    data[byte_i] ^= 1 << (bit_index % 8)
    return bytes(data)


class ChainedInjector:
    """Compose fault injectors: each stage filters the previous one's
    output envelopes.

    Used when a lossy fabric (``FabricSpec.loss_plan()``) and an
    explicit ``FaultPlan`` are both in play: the fabric's iid drops
    apply first (the wire loses the message before any injected
    misbehaviour could), then the user's plan.  Each part keeps its own
    RNG and ledger; :attr:`injected` merges the ledgers for reporting.
    """

    def __init__(self, parts):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("ChainedInjector needs at least one injector")

    def apply(self, env: Envelope) -> list[Envelope]:
        outs = [env]
        for part in self.parts:
            outs = [out for e in outs for out in part.apply(e)]
            if not outs:
                break
        return outs

    @property
    def injected(self) -> dict[FaultAction, int]:
        merged = {a: 0 for a in FaultAction}
        for part in self.parts:
            for action, count in part.injected.items():
                merged[action] += count
        return merged

    @property
    def rts_duplicates_skipped(self) -> int:
        return sum(part.rts_duplicates_skipped for part in self.parts)


# -- declarative plans ---------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan(Spec):
    """Declarative, seeded fault model — the repeatable way to misbehave.

    A plan is a frozen value: rates per fault action, a seed, and
    optional route/tag filters.  :meth:`build` resolves it into a fresh
    :class:`FaultInjector` (own RNG stream, own ledger), so one plan can
    parameterize every cell of a sweep without the shared-mutable-state
    trap the old instance-vs-factory API had.  Given a fixed delivery
    order — which the deterministic simulator guarantees — two builds
    of the same plan inject the identical fault sequence.

    Rates are probabilities in ``[0, 1]`` summing to at most 1; the
    remainder delivers untouched.  The RNG is consumed only for
    envelopes that pass the filters, so filtered-out traffic cannot
    perturb the fault sequence.  The token leaves out every field at
    its default, so an unset filter (None) never prints.
    """

    grammar = Grammar(
        "fault",
        keys={"drop": ("drop", FRACTION), "corrupt": ("corrupt", FRACTION),
              "duplicate": ("duplicate", FRACTION), "seed": ("seed", INT),
              "src": ("src", INT), "dst": ("dst", INT), "tag": ("tag", INT),
              "corrupt_bit": ("corrupt_bit", INT)},
        terse=True,
    )

    drop: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    seed: int = 0
    #: optional filters: only envelopes matching all set fields are
    #: candidates for fault injection (None = any)
    src: Optional[int] = None
    dst: Optional[int] = None
    tag: Optional[int] = None
    #: bit index flipped by CORRUPT (see FaultInjector.corrupt_bit)
    corrupt_bit: int = 0

    def __post_init__(self) -> None:
        for name in ("drop", "corrupt", "duplicate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1], got {rate}")
        if self.drop + self.corrupt + self.duplicate > 1.0:
            raise ValueError(
                "drop + corrupt + duplicate rates exceed 1.0: "
                f"{self.drop} + {self.corrupt} + {self.duplicate}"
            )

    def _matches(self, env: Envelope) -> bool:
        if self.src is not None and env.src != self.src:
            return False
        if self.dst is not None and env.dst != self.dst:
            return False
        if self.tag is not None and env.tag != self.tag:
            return False
        return True

    def build(self) -> FaultInjector:
        """A fresh injector realizing this plan (one per job/cell)."""
        rng = random.Random(self.seed)
        drop_t = self.drop
        corrupt_t = self.drop + self.corrupt
        dup_t = self.drop + self.corrupt + self.duplicate

        def policy(env: Envelope) -> FaultAction:
            if not self._matches(env):
                return FaultAction.DELIVER
            u = rng.random()
            if u < drop_t:
                return FaultAction.DROP
            if u < corrupt_t:
                return FaultAction.CORRUPT
            if u < dup_t:
                return FaultAction.DUPLICATE
            return FaultAction.DELIVER

        return FaultInjector(policy, corrupt_bit=self.corrupt_bit)


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse ``"drop=5%,corrupt=0.02,seed=7"`` into a FaultPlan.

    Keys: ``drop``, ``corrupt``, ``duplicate`` (fractions, '%'
    accepted), ``seed``, ``src``, ``dst``, ``tag`` and ``corrupt_bit``
    (ints).
    """
    return FaultPlan.parse(spec)


# -- ready-made policies -------------------------------------------------------


def corrupt_every_nth(n: int, start: int = 0) -> Policy:
    """Corrupt message number start, start+n, ... (0-indexed arrival)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    counter = {"i": -1}

    def policy(_env: Envelope) -> FaultAction:
        counter["i"] += 1
        if counter["i"] >= start and (counter["i"] - start) % n == 0:
            return FaultAction.CORRUPT
        return FaultAction.DELIVER

    return policy


def target_route(src: int, dst: int, action: FaultAction) -> Policy:
    """Apply *action* to every message on one route, deliver the rest."""

    def policy(env: Envelope) -> FaultAction:
        if env.src == src and env.dst == dst:
            return action
        return FaultAction.DELIVER

    return policy

"""Fabric models: clean 10 GbE / 40 Gb IB plus hostile WAN/IoT presets.

The model is an extended Hockney decomposition of the calibrated
one-way ping-pong time ``t(s) = s / pp_throughput(s)``:

    t(s) = o_send(s) + L + proto_delay(s) + s / B_stream(s) + o_recv(s)

- ``o_send/o_recv``: per-message CPU overhead at each end (plus an
  eager-protocol copy at ``copy_bw``),
- ``L``: one-way wire+stack latency,
- ``B_stream(s)``: the *pipelined* single-stream bandwidth a window of
  in-flight messages achieves (the max-min-fair flow model caps each
  in-flight message at this rate and shares the NIC capacity across
  flows),
- ``proto_delay(s)``: the per-message protocol residual that makes a
  solitary ping-pong message slower than a pipelined stream (ACK
  round-trips, segmentation stalls).  It is *latency*, not occupancy:
  consecutive messages of one stream overlap their proto delays, which
  is exactly why the OSU multi-pair test outruns ping-pong.

Everything is calibrated so that the **unencrypted** benchmarks land on
the paper's baseline rows; encrypted results are predictions.

Hostile fabrics (ROADMAP item 5) are expressed as a frozen
:class:`FabricSpec` — a base preset (``ethernet``/``infiniband``/
``wan``/``iot``) plus seeded, deterministic noise knobs — parsed in
the shared spec grammar of :mod:`repro.util.specs`::

    parse_network_spec("wan:jitter=10%,loss=2%,seed=7")

Jitter and bandwidth wobble are applied by a :class:`NoiseModel`
wrapper at the transport's delivery leg; the iid loss probability is
*not* reimplemented here — it compiles to the existing
``FaultPlan``/``ReliabilityManager`` machinery (see
``repro.simmpi.world``), so noisy drops are retransmitted, NACKed, and
escalated exactly like injected faults.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.models import calibration
from repro.models.interp import LogLogCurve
from repro.util.specs import FRACTION, INT, Grammar, Spec, Value


class WireCosts(NamedTuple):
    """The per-size constants of one inter-node message."""

    #: at most the eager threshold: the payload leaves at once, with no
    #: rendezvous handshake
    eager: bool
    send_overhead: float
    recv_overhead: float
    #: wire latency plus the protocol residual, paid after the transfer
    tail: float
    #: unloaded serialization time at the stream bandwidth
    transfer: float


@dataclass(frozen=True)
class NetworkModel:
    """Timing oracle for one fabric (plus the intra-node shm path)."""

    name: str
    latency: float
    msg_overhead: float
    copy_bw: float
    nic_capacity: float
    eager_threshold: int
    nic_msg_time: float
    contention_factor: float
    contention_free_senders: int
    pp_curve: LogLogCurve = field(repr=False)
    stream_curve: LogLogCurve = field(repr=False)
    shm_latency: float = field(default=calibration.SHM_CONSTANTS["latency"])
    shm_msg_overhead: float = field(default=calibration.SHM_CONSTANTS["msg_overhead"])
    shm_curve: LogLogCurve = field(
        default_factory=lambda: LogLogCurve(
            {k: v for k, v in calibration.SHM_CONSTANTS["bandwidth"].items()}
        ),
        repr=False,
    )

    def __post_init__(self) -> None:
        # Per-size memo: every simulated message evaluates several of
        # the lookups below, and an experiment only ever uses a handful
        # of distinct sizes — so each is computed once per instance.
        # (object.__setattr__ because the dataclass is frozen; the memo
        # is not a field, so eq/repr are unaffected.)
        object.__setattr__(self, "_memo", {})

    # -- inter-node path -----------------------------------------------------

    def pingpong_oneway_time(self, size: int) -> float:
        """Calibrated one-way time for a solitary matched message."""
        memo = self._memo
        key = ("pp", size)
        v = memo.get(key)
        if v is None:
            s = max(size, 1)
            memo[key] = v = s / (self.pp_curve(s) * 1e6)
        return v

    def stream_bandwidth(self, size: int) -> float:
        """Pipelined per-stream bandwidth in bytes/s for *size*-byte msgs."""
        memo = self._memo
        key = ("bw", size)
        v = memo.get(key)
        if v is None:
            memo[key] = v = self.stream_curve(max(size, 1)) * 1e6
        return v

    def send_overhead(self, size: int) -> float:
        """Sender CPU time per message (descriptor + eager copy)."""
        memo = self._memo
        key = ("so", size)
        v = memo.get(key)
        if v is None:
            v = self.msg_overhead
            if 0 < size <= self.eager_threshold:
                v += size / self.copy_bw
            memo[key] = v
        return v

    def recv_overhead(self, size: int) -> float:
        """Receiver CPU time per message (matching + eager copy-out)."""
        memo = self._memo
        key = ("ro", size)
        v = memo.get(key)
        if v is None:
            v = self.msg_overhead
            if 0 < size <= self.eager_threshold:
                v += size / self.copy_bw
            memo[key] = v
        return v

    def proto_delay(self, size: int) -> float:
        """Per-message residual latency (pipelinable across a stream)."""
        memo = self._memo
        key = ("pd", size)
        v = memo.get(key)
        if v is not None:
            return v
        s = max(size, 1)
        ideal = (
            self.send_overhead(size)
            + self.nic_service_time(1)
            + self.latency
            + s / self.stream_bandwidth(size)
            + self.recv_overhead(size)
        )
        if size > self.eager_threshold:
            ideal += self.rendezvous_handshake()
        memo[key] = v = max(0.0, self.pingpong_oneway_time(size) - ideal)
        return v

    def wire_costs(self, size: int) -> WireCosts:
        """Every per-size cost of an inter-node message, in one lookup."""
        memo = self._memo
        key = ("wire", size)
        v = memo.get(key)
        if v is None:
            memo[key] = v = WireCosts(
                self.is_eager(size),
                self.send_overhead(size),
                self.recv_overhead(size),
                self.latency + self.proto_delay(size),
                size / self.stream_bandwidth(size) if size else 0.0,
            )
        return v

    def rendezvous_handshake(self) -> float:
        """RTS/CTS exchange cost once a rendezvous pairing exists."""
        return 2.0 * self.latency

    def is_eager(self, size: int) -> bool:
        return size <= self.eager_threshold

    def nic_service_time(self, concurrent_senders: int) -> float:
        """Per-message NIC engine occupancy under *concurrent_senders*.

        Grows past ``contention_free_senders`` to reproduce the IB
        aggregate drop between 4 and 8 pairs (Fig. 11).
        """
        memo = self._memo
        key = ("nic", concurrent_senders)
        v = memo.get(key)
        if v is None:
            extra = max(0, concurrent_senders - self.contention_free_senders)
            memo[key] = v = self.nic_msg_time * (
                1.0 + self.contention_factor * extra
            )
        return v

    # -- intra-node path -------------------------------------------------------

    def shm_oneway_time(self, size: int) -> float:
        s = max(size, 1)
        return (
            2 * self.shm_msg_overhead
            + self.shm_latency
            + s / self.shm_curve(s)
        )

    def shm_delivery_delay(self, size: int) -> float:
        """Wire-side shm delay: latency plus the copy through the
        shared-memory bandwidth curve (the transport's delivery leg)."""
        memo = self._memo
        key = ("shmd", size)
        v = memo.get(key)
        if v is None:
            v = self.shm_latency
            if size > 0:
                v += size / self.shm_curve(size)
            memo[key] = v
        return v

    def shm_overhead(self, size: int) -> float:
        t = self.shm_msg_overhead
        if size > 0:
            t += size / self.copy_bw
        return t


def _build(name: str) -> NetworkModel:
    consts = calibration.NETWORK_CONSTANTS[name]
    return NetworkModel(
        name=name,
        pp_curve=LogLogCurve(calibration.PINGPONG_BASELINE[name]),
        stream_curve=LogLogCurve(calibration.STREAM_BANDWIDTH[name]),
        **consts,
    )


#: Shared singletons per fabric: NetworkModel is frozen/immutable, so
#: every caller can use one instance — which also shares its per-size
#: memo across experiments instead of re-interpolating the curves.
_MODEL_CACHE: dict[str, NetworkModel] = {}


def ethernet_10g() -> NetworkModel:
    """The paper's 10 Gb Ethernet (Intel 82599ES) + MPICH-3.2.1 stack."""
    model = _MODEL_CACHE.get("ethernet")
    if model is None:
        model = _MODEL_CACHE["ethernet"] = _build("ethernet")
    return model


def infiniband_40g() -> NetworkModel:
    """The paper's 40 Gb IB QDR (Mellanox ConnectX) + MVAPICH2-2.3 stack."""
    model = _MODEL_CACHE.get("infiniband")
    if model is None:
        model = _MODEL_CACHE["infiniband"] = _build("infiniband")
    return model


#: The canonical fabric presets, in registry order.
FABRIC_PRESETS = ("ethernet", "infiniband", "wan", "iot")

#: Accepted spellings per preset (the canonical name is always one).
_FABRIC_ALIASES = {
    "ethernet": "ethernet", "eth": "ethernet", "10g": "ethernet",
    "ethernet10g": "ethernet",
    "infiniband": "infiniband", "ib": "infiniband", "40g": "infiniband",
    "infiniband40g": "infiniband",
    "wan": "wan",
    "iot": "iot",
}


def _unknown_fabric_message(name: str) -> str:
    """Shared by get_network and parse_network_spec (same KeyError)."""
    return (
        f"unknown network {name!r}; valid fabric presets: "
        + ", ".join(FABRIC_PRESETS)
    )


def canonical_fabric(name: str) -> str:
    """Resolve an alias ('eth', '10g', ...) to its canonical preset name."""
    base = _FABRIC_ALIASES.get(name)
    if base is None:
        raise KeyError(_unknown_fabric_message(name))
    return base


def get_network(name: str) -> NetworkModel:
    """The shared, noise-free model for a fabric preset (or alias).

    Raises :class:`KeyError` naming the valid presets on an unknown
    name — the same message :func:`parse_network_spec` uses for an
    unknown base fabric.
    """
    base = canonical_fabric(name)
    model = _MODEL_CACHE.get(base)
    if model is None:
        model = _MODEL_CACHE[base] = _build(base)
    return model


# --------------------------------------------------------------------------
# FabricSpec: typed fabric facade (base preset + seeded noise)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FabricSpec(Spec):
    """A fabric preset plus deterministic noise, in canonical form.

    - ``jitter``: per-message latency jitter as a fraction of the base
      one-way latency; each delivery leg is delayed by an extra
      ``U[0, 2*jitter) * latency`` (mean ``jitter * latency``, never
      negative, never reordering — FIFO routes stay FIFO).
    - ``wobble``: bandwidth wobble; each delivery leg's total delay is
      scaled by ``U[1-wobble, 1+wobble)``.
    - ``loss``: iid per-message drop probability, compiled to a seeded
      ``FaultPlan(drop=loss)`` so drops flow through the existing
      reliability machinery (pair lossy fabrics with a
      ``ResiliencePolicy`` or the job deadlocks, exactly as with an
      explicit fault plan).
    - ``seed``: master seed for both noise streams; repetition runners
      vary it to get independent-but-reproducible reps.

    A clean spec (all knobs zero) builds the shared noise-free
    singleton, so ``FabricSpec("ethernet")`` is byte-identical to the
    historical bare string, and tokens to the bare preset name, which
    keeps every historical cache key and memo key byte-identical.
    """

    grammar = Grammar(
        "network",
        head=("network fabric", "base", Value("a fabric preset",
                                              canonical_fabric)),
        keys={"jitter": ("jitter", FRACTION), "wobble": ("wobble", FRACTION),
              "loss": ("loss", FRACTION), "seed": ("seed", INT)},
        terse=True,
    )

    base: str = "ethernet"
    jitter: float = 0.0
    wobble: float = 0.0
    loss: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", canonical_fabric(self.base))
        for knob in ("jitter", "wobble", "loss"):
            value = getattr(self, knob)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{knob} must be a fraction, got {value!r}")
            object.__setattr__(self, knob, float(value))
        if not (math.isfinite(self.jitter) and self.jitter >= 0.0):
            raise ValueError(
                f"jitter must be a finite fraction >= 0, got {self.jitter!r}"
            )
        if not 0.0 <= self.wobble < 1.0:
            raise ValueError(f"wobble must be a fraction in [0, 1), got {self.wobble!r}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be a fraction in [0, 1), got {self.loss!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")

    @property
    def noisy(self) -> bool:
        return bool(self.jitter or self.wobble or self.loss)

    def build(self) -> NetworkModel:
        """The timing model this spec describes.

        Clean-timing specs (no jitter/wobble) return the shared
        noise-free singleton; noisy ones return a fresh
        :class:`NoiseModel` per call, so every job gets its own RNG
        stream positioned at the start (parallel campaign workers and
        serial runs draw identical sequences).
        """
        model = get_network(self.base)
        if self.jitter == 0.0 and self.wobble == 0.0:
            return model
        return NoiseModel(model, self)

    def loss_plan(self):
        """The seeded ``FaultPlan`` carrying this spec's drop rate
        (None when lossless)."""
        if not self.loss:
            return None
        from repro.simmpi.faults import FaultPlan  # avoid import cycle
        return FaultPlan(drop=self.loss, seed=self.seed)


def parse_network_spec(spec: str | FabricSpec) -> FabricSpec:
    """Parse ``"BASE[:key=value,...]"`` into a :class:`FabricSpec`
    (a FabricSpec passes through).

    Keys: ``jitter``/``wobble``/``loss`` (fractions, '%' accepted) and
    ``seed`` (int).  An unknown base raises the :class:`KeyError` of
    :func:`get_network`.

    >>> parse_network_spec("wan:jitter=10%,loss=2%,seed=7")
    FabricSpec(base='wan', jitter=0.1, wobble=0.0, loss=0.02, seed=7)
    """
    return FabricSpec.coerce(spec)


def resolve_network(network) -> tuple[FabricSpec | None, NetworkModel]:
    """Resolve any accepted ``network=`` argument to (spec, model).

    Strings and FabricSpecs yield their spec; a prebuilt model instance
    (NetworkModel or NoiseModel) passes through with ``spec=None`` —
    callers that need the loss plan only get one when a spec exists.
    """
    if isinstance(network, (str, FabricSpec)):
        spec = FabricSpec.coerce(network)
        return spec, spec.build()
    return None, network


class NoiseModel:
    """A seeded noisy wrapper around a base :class:`NetworkModel`.

    Timing lookups delegate to the (memoized, shared) base model; the
    transport additionally calls :meth:`perturb_delay` once per
    inter-node delivery leg.  Draw order is the DES event order, which
    is deterministic — same spec token, same byte-identical run.  Each
    job builds its own instance (fresh RNG position), so results never
    depend on how many jobs shared a model before this one.
    """

    def __init__(self, base: NetworkModel, spec: FabricSpec):
        self._base = base
        self.spec = spec
        self.name = spec.token()
        # Distinct stream from the loss plan's Random(seed): the drop
        # draws and the timing draws must not be correlated.
        self._rng = random.Random(spec.seed ^ 0x6E6F6973)

    @property
    def base(self) -> NetworkModel:
        return self._base

    def __getattr__(self, attr: str):
        base = self.__dict__.get("_base")
        if base is None:  # during unpickling, before __init__ state lands
            raise AttributeError(attr)
        return getattr(base, attr)

    def __repr__(self) -> str:
        return f"NoiseModel({self.name!r})"

    def perturb_delay(self, delay: float) -> float:
        """Perturb one delivery-leg delay (called by the transport)."""
        spec = self.spec
        rng = self._rng
        if spec.wobble:
            delay *= 1.0 + spec.wobble * (2.0 * rng.random() - 1.0)
        if spec.jitter:
            delay += self._base.latency * spec.jitter * 2.0 * rng.random()
        return delay

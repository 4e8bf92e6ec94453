"""Analytical prediction engine: calibrate once, answer sweeps instantly.

The simulator answers one (library, fabric, size, ...) cell in tens of
milliseconds of wall time; a million-cell sweep is hours.  This module
fits closed-form models to a *small deterministic set of simulated
anchor cells* and then answers arbitrary cells in microseconds:

1. **Calibrate** — :func:`calibrate` runs ~120 anchor cells (ping-pong
   and OSU-multipair points per library x fabric, memoized through the
   campaign :class:`~repro.experiments.campaign.ResultCache` exactly
   like any other cell) and fits

   - a monotone piecewise-affine *plain* latency curve per fabric
     (Hockney ``a + b*s`` per protocol regime, knees at the fabric's
     eager threshold and the chunking knee),
   - a per-library *crypto delta* curve (``cost = a + b*bytes``,
     piecewise around the chunking knee) on top of the plain curve,
   - a per-message *streaming interval* curve and a max-min-fair
     *pair-share* curve for the shared NIC, and
   - a per-fabric CryptMPI pipelining scale factor.

2. **Predict** — the frozen :class:`PredictionModel` answers
   ``predict(library, fabric, size, pairs, plan, faults, resilience)``
   with a :class:`Prediction` (latency, goodput, confidence).  The
   CryptMPI mode reuses the *simulator's own* wave formula
   (:func:`repro.models.cpu.pipeline_waves`) so planner and predictor
   cannot drift; resilience overhead is the expected-retransmission
   closed form ``sum_k p^k (retry_delay(k) + resend)``.

3. **Validate** — the ``predict`` registry experiment
   (:mod:`repro.experiments.predict`) sweeps a grid the calibration
   never ran and reports predicted-vs-simulated relative error.

Every holdout anchor (sizes the fit never saw) feeds the model's
per-family confidence bounds, so every prediction carries an honest
error bar.  Calibration is deterministic: the same anchor cells fit to
the same coefficients, pinned byte-for-byte by
:meth:`PredictionModel.token`.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.encmpi.plan import CryptoPlan
from repro.models.cpu import pipeline_waves
from repro.models.cryptolib import PROFILED_LIBRARIES
from repro.models.network import FabricSpec, get_network
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy

KIB = 1024
MIB = 1024 * 1024

#: fabrics the model is calibrated for (canonical get_network names)
FABRICS = ("ethernet", "infiniband")

#: benchmark slice geometry (ping-pong / multipair: 2 nodes x 8 cores,
#: one resident rank per node in the ping-pong, so 7 helper cores)
CORES_PER_NODE = 8
PINGPONG_HELPERS = CORES_PER_NODE - 1

#: the chunking knee: above this the simulator's curves change regime
#: (rendezvous + per-chunk framing amortized); shared by every fit
CHUNK_KNEE = 256 * KIB

# -- anchor grid --------------------------------------------------------------

PLAIN_FIT_SIZES = (256, 512, KIB, 2 * KIB, 4 * KIB, 8 * KIB, 16 * KIB,
                   48 * KIB, 64 * KIB, 128 * KIB, 256 * KIB, MIB, 2 * MIB,
                   4 * MIB)
PLAIN_KNEES = (KIB, 4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, MIB)
PINGPONG_HOLDOUT_SIZES = (32 * KIB, 512 * KIB)
PINGPONG_ITERS = 2

CRYPTO_FIT_SIZES = (256, KIB, 4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, MIB,
                    2 * MIB, 4 * MIB)
CRYPTO_KNEES = (4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, MIB, 2 * MIB)
CRYPTO_HOLDOUT_SIZES = (32 * KIB, 512 * KIB)

STREAM_FIT_SIZES = (16 * KIB, 64 * KIB, 256 * KIB, MIB)
PAIR_FIT_COUNTS = (2, 4, 6)
PAIR_FIT_SIZES = (64 * KIB, MIB)  # small / large NIC-sharing regimes
#: encrypted multipair anchors fitting the seal/contention overlap factor
MP_CRYPTO_LIBS = ("boringssl", "cryptopp")
MP_CRYPTO_CELLS = ((64 * KIB, 2), (64 * KIB, 4), (MIB, 2), (MIB, 4))
MULTIPAIR_HOLDOUTS = ((3, MIB, None), (5, 64 * KIB, None),
                      (5, MIB, "boringssl"), (3, 64 * KIB, "cryptopp"))
MULTIPAIR_WINDOW = 16
MULTIPAIR_ITERS = 2

CRYPTMPI_LIBS = ("boringssl", "cryptopp")
CRYPTMPI_CHUNK = 64 * KIB
CRYPTMPI_FIT_SIZES = (256 * KIB, MIB, 4 * MIB)
CRYPTMPI_HOLDOUT_SIZES = (512 * KIB, 2 * MIB)

#: capped-helper pipeline geometries: (chunk_bytes, helper cap,
#: fit sizes pinning two chunk counts, holdout size).  They anchor the
#: per-chunk-size wire penalty — the simulator's per-chunk cost drifts
#: with the chunk size (bigger chunks pay relatively more handshake
#: per chunk than the 64 KiB reference the main cryptmpi fit uses),
#: and these cells let the fit see that drift instead of extrapolating.
CRYPTMPI_CAPPED_GEOMS = (
    (128 * KIB, 3, (192 * KIB, MIB), 512 * KIB),
    (256 * KIB, 2, (384 * KIB, 2 * MIB), 768 * KIB),
)

FAULT_HOLDOUT_CELLS = ((2 * KIB, "exponential"), (96 * KIB, "fixed"))
FAULT_HOLDOUT_RATE = 0.1
FAULT_HOLDOUT_ITERS = 96
FAULT_HOLDOUT_POLICY = dict(max_retries=6, timeout=2e-4)

#: no holdout family may claim a tighter bound than this (two anchors
#: per family cannot certify sub-2% accuracy)
CONFIDENCE_FLOOR = 0.02


# -- monotone piecewise-affine fits -------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One affine piece ``a + b*s`` valid for sizes up to ``hi``."""

    hi: float
    a: float
    b: float


@dataclass(frozen=True)
class PiecewiseAffine:
    """Monotone (non-decreasing) piecewise-affine curve over sizes.

    Each segment evaluates ``a + b*s`` with slope clamped ``>= 0`` at
    fit time; evaluation additionally floors every segment at the
    running maximum of the previous segments' right-boundary values, so
    the curve is non-decreasing *by construction* even where the
    least-squares pieces would disagree at a knee.
    """

    segments: tuple[Segment, ...]
    floors: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("need at least one segment")
        if not self.floors:
            floors, running = [], 0.0
            for seg in self.segments:
                floors.append(running)
                running = max(running, seg.a + seg.b * seg.hi, 0.0)
            object.__setattr__(self, "floors", tuple(floors))

    def __call__(self, size: float) -> float:
        if size < 0:
            raise ValueError(f"negative size {size}")
        his = [seg.hi for seg in self.segments]
        i = min(bisect_left(his, size), len(his) - 1)
        seg = self.segments[i]
        return max(self.floors[i], seg.a + seg.b * size, 0.0)


def _affine(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares ``a + b*s`` through *points*, slope clamped >= 0."""
    n = len(points)
    if n == 1:
        return points[0][1], 0.0
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)
    sxx = sum(p[0] * p[0] for p in points)
    sxy = sum(p[0] * p[1] for p in points)
    denom = n * sxx - sx * sx
    b = (n * sxy - sx * sy) / denom if denom else 0.0
    b = max(b, 0.0)
    a = (sy - b * sx) / n
    return a, b


def fit_monotone(
    points: list[tuple[float, float]], knees: tuple[float, ...]
) -> PiecewiseAffine:
    """Fit a :class:`PiecewiseAffine` with breakpoints at *knees*.

    Points are partitioned with inclusive boundaries on *both* ends, so
    a point sitting exactly on a knee anchors the segments on either
    side and the curve stays continuous-ish there.  A segment with no
    points borrows the previous segment's coefficients.
    """
    if not points:
        raise ValueError("cannot fit an empty point set")
    pts = sorted(points)
    bounds = tuple(sorted(knees)) + (math.inf,)
    segments: list[Segment] = []
    lo = -math.inf
    prev: tuple[float, float] | None = None
    for hi in bounds:
        here = [(s, v) for s, v in pts if lo <= s <= hi]
        if here:
            prev = _affine(here)
        elif prev is None:
            raise ValueError(f"no fit points at or below knee {hi}")
        segments.append(Segment(hi=hi, a=prev[0], b=prev[1]))
        lo = hi
    return PiecewiseAffine(tuple(segments))


@dataclass(frozen=True)
class PairShareCurve:
    """Max-min-fair NIC sharing: per-pair efficiency vs pair count.

    ``share(p)`` is the fraction of its solitary rate each of *p*
    concurrent pairs sustains — 1.0 for one pair, non-increasing in
    *p* by construction (running-min over the measured factors, and a
    capped-aggregate ``f(p_max) * p_max / p`` tail beyond the last
    anchor).  Between anchors the *aggregate* factor ``p * f(p)`` is
    interpolated linearly — the NIC saturation curve is concave in the
    aggregate, so this lands much closer than interpolating per-pair
    efficiency directly, and the running-min on the anchors guarantees
    the resulting ``f`` still never increases.
    """

    points: tuple[tuple[int, float], ...]  # sorted (pairs, factor)

    def __post_init__(self) -> None:
        if not self.points or self.points[0] != (1, 1.0):
            raise ValueError("pair-share curve must start at (1, 1.0)")

    def share(self, pairs: int) -> float:
        if pairs < 1:
            raise ValueError(f"pairs must be >= 1, got {pairs}")
        pts = self.points
        if pairs >= pts[-1][0]:
            pmax, fmax = pts[-1]
            return fmax * pmax / pairs
        for (p0, f0), (p1, f1) in zip(pts, pts[1:]):
            if p0 <= pairs <= p1:
                w = (pairs - p0) / (p1 - p0)
                agg = p0 * f0 + w * (p1 * f1 - p0 * f0)
                return agg / pairs
        raise AssertionError("unreachable")


# -- anchor cells -------------------------------------------------------------


@dataclass(frozen=True)
class AnchorCell:
    """One simulated calibration point (cached like any campaign cell)."""

    kind: str  # "pingpong" | "multipair"
    fabric: str
    size: int
    library: str | None = None
    pairs: int = 1
    iters: int = PINGPONG_ITERS
    window: int = MULTIPAIR_WINDOW
    plan: CryptoPlan | None = None
    faults: FaultPlan | None = None
    resilience: ResiliencePolicy | None = None
    purpose: str = "plain"  # plain|crypto|stream|pairs|cryptmpi|fault
    role: str = "fit"  # fit | holdout

    def spec(self) -> dict:
        """Canonical JSON-able description (the cache-key payload)."""
        from repro.experiments.campaign import _jsonable

        return {
            "kind": self.kind,
            "fabric": self.fabric,
            "size": self.size,
            "library": self.library,
            "pairs": self.pairs,
            "iters": self.iters,
            "window": self.window,
            "plan": None if self.plan is None else self.plan.token(),
            "faults": _jsonable(self.faults),
            "resilience": _jsonable(self.resilience),
        }

    def simulate(self) -> float:
        """Run the cell in the simulator; seconds (pingpong one-way
        time) or bytes/s (multipair aggregate throughput)."""
        from repro.workloads.multipair import multipair_aggregate_throughput
        from repro.workloads.pingpong import pingpong_oneway_time

        if self.kind == "pingpong":
            crypto = self.plan
            if crypto is None and self.library is not None:
                # explicit serial plan: anchors must be immune to the
                # process-wide default plan (campaign --crypto)
                crypto = CryptoPlan(library=self.library)
            return pingpong_oneway_time(
                self.size,
                network=self.fabric,
                library=self.library,
                iters=self.iters,
                crypto=crypto,
                faults=self.faults,
                resilience=self.resilience,
            )
        if self.kind == "multipair":
            return multipair_aggregate_throughput(
                self.size,
                self.pairs,
                network=self.fabric,
                library=self.library,
                window=self.window,
                iters=self.iters,
                crypto=CryptoPlan(library=self.library)
                if self.library is not None
                else None,
            )
        raise AssertionError(f"unknown anchor kind {self.kind!r}")


def anchor_cells() -> tuple[AnchorCell, ...]:
    """The deterministic calibration set, every fabric x library x mode."""
    cells: list[AnchorCell] = []
    for fabric in FABRICS:
        plain_sizes = set(PLAIN_FIT_SIZES)
        plain_sizes.add(get_network(fabric).eager_threshold)
        for s in sorted(plain_sizes):
            cells.append(AnchorCell("pingpong", fabric, s, purpose="plain"))
        for s in PINGPONG_HOLDOUT_SIZES:
            cells.append(
                AnchorCell("pingpong", fabric, s, purpose="plain",
                           role="holdout")
            )
        for lib in PROFILED_LIBRARIES:
            for s in CRYPTO_FIT_SIZES:
                cells.append(
                    AnchorCell("pingpong", fabric, s, library=lib,
                               purpose="crypto")
                )
            for s in CRYPTO_HOLDOUT_SIZES:
                cells.append(
                    AnchorCell("pingpong", fabric, s, library=lib,
                               purpose="crypto", role="holdout")
                )
        for s in STREAM_FIT_SIZES:
            cells.append(
                AnchorCell("multipair", fabric, s, pairs=1,
                           iters=MULTIPAIR_ITERS, purpose="stream")
            )
        for s in PAIR_FIT_SIZES:
            for p in PAIR_FIT_COUNTS:
                cells.append(
                    AnchorCell("multipair", fabric, s, pairs=p,
                               iters=MULTIPAIR_ITERS, purpose="pairs")
                )
        for lib in MP_CRYPTO_LIBS:
            for s, p in MP_CRYPTO_CELLS:
                cells.append(
                    AnchorCell("multipair", fabric, s, library=lib, pairs=p,
                               iters=MULTIPAIR_ITERS, purpose="mp_crypto")
                )
        for p, s, lib in MULTIPAIR_HOLDOUTS:
            cells.append(
                AnchorCell("multipair", fabric, s, library=lib, pairs=p,
                           iters=MULTIPAIR_ITERS, purpose="pairs",
                           role="holdout")
            )
        for lib in CRYPTMPI_LIBS:
            plan = CryptoPlan(library=lib, mode="cryptmpi",
                              chunk_bytes=CRYPTMPI_CHUNK)
            for s in CRYPTMPI_FIT_SIZES:
                cells.append(
                    AnchorCell("pingpong", fabric, s, library=lib,
                               plan=plan, purpose="cryptmpi")
                )
            for s in CRYPTMPI_HOLDOUT_SIZES:
                cells.append(
                    AnchorCell("pingpong", fabric, s, library=lib,
                               plan=plan, purpose="cryptmpi",
                               role="holdout")
                )
        for cbytes, cap, fit_sizes, holdout_size in CRYPTMPI_CAPPED_GEOMS:
            for s in fit_sizes:
                cells.append(
                    AnchorCell(
                        "pingpong", fabric, s, library="boringssl",
                        plan=CryptoPlan(library="boringssl",
                                        mode="cryptmpi",
                                        chunk_bytes=cbytes,
                                        helper_cores=cap),
                        purpose="cryptmpi_capped",
                    )
                )
            cells.append(
                AnchorCell(
                    "pingpong", fabric, holdout_size, library="cryptopp",
                    plan=CryptoPlan(library="cryptopp", mode="cryptmpi",
                                    chunk_bytes=cbytes, helper_cores=cap),
                    purpose="cryptmpi_capped", role="holdout",
                )
            )
        for s, backoff in FAULT_HOLDOUT_CELLS:
            cells.append(
                AnchorCell(
                    "pingpong", fabric, s, library="boringssl",
                    iters=FAULT_HOLDOUT_ITERS,
                    faults=FaultPlan(drop=FAULT_HOLDOUT_RATE, seed=11),
                    resilience=ResiliencePolicy(backoff=backoff,
                                                **FAULT_HOLDOUT_POLICY),
                    purpose="fault", role="holdout",
                )
            )
    return tuple(cells)


def run_anchor_cells(
    cells: tuple[AnchorCell, ...], cache_dir: str | None
) -> list[float]:
    """Simulate *cells*, memoized through the campaign result cache.

    Keys are :func:`~repro.experiments.campaign.cell_key` over the
    cell's canonical spec and the current code fingerprint — an anchor
    cell is cached exactly like any other campaign cell, so a code
    change invalidates it and a repeated calibration is pure cache
    hits.
    """
    # imported lazily: the campaign module imports the experiment
    # registry, which imports the predict experiment, which imports us
    from repro.experiments.campaign import (
        ResultCache, _digest, cell_key, code_fingerprint,
    )

    cache = ResultCache(cache_dir) if cache_dir else None
    fp = code_fingerprint()
    out: list[float] = []
    for cell in cells:
        spec = cell.spec()
        key = cell_key("predict-anchor", _digest(spec), fp)
        entry = cache.get(key) if cache is not None else None
        if entry is None:
            value = cell.simulate()
            if cache is not None:
                cache.put(key, {"value": value, "spec": spec})
        else:
            value = entry["value"]
        out.append(value)
    return out


# -- the frozen model ---------------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    """One analytical answer, with an honest error bar.

    ``confidence`` is a relative half-width: the simulator's value is
    expected within ``latency * (1 +- confidence)`` (see
    :attr:`latency_bounds`), composed from the holdout error of every
    model family the query exercised.
    """

    latency: float  # seconds per message (one-way / per-window-slot)
    goodput: float  # aggregate plaintext bytes/s across all pairs
    per_pair_goodput: float
    confidence: float
    family: str  # which fitted family answered (e.g. "ethernet/boringssl")

    @property
    def latency_bounds(self) -> tuple[float, float]:
        return (self.latency * (1.0 - self.confidence),
                self.latency * (1.0 + self.confidence))


@dataclass(frozen=True)
class PredictionModel:
    """Frozen fit of the simulator: answers cells in microseconds."""

    plain: dict  # fabric -> PiecewiseAffine (one-way seconds)
    crypto: dict  # "fabric/library" -> PiecewiseAffine (delta seconds)
    stream: dict  # fabric -> PiecewiseAffine (per-message interval, s)
    pair_share: dict  # "fabric/regime" -> PairShareCurve
    cryptmpi_scale: dict  # fabric -> float (affine slope on the schedule)
    cryptmpi_offset: dict  # fabric -> float (pipeline fill/drain seconds)
    cryptmpi_penalty: dict  # fabric -> ((chunk_bytes, d0, d1), ...)
    seal_overlap: dict  # fabric -> float (streaming seal exposure, [0, 2])
    confidence_bounds: dict  # family -> relative error bound
    margins: dict  # extra confidence per exercised feature
    anchor_count: int
    fingerprint: str  # code fingerprint at calibration (not in token())

    # -- prediction -----------------------------------------------------------

    def _calibrated_fabric(self, fabric: str | FabricSpec) -> str:
        """The calibrated preset *fabric* names; a ValueError naming the
        calibrated domain for a noisy spec (jitter, wobble or loss), an
        uncalibrated preset, or an unknown name."""
        domain = ("the model is calibrated for the noise-free fabrics "
                  + ", ".join(sorted(self.plain)))
        try:
            spec = FabricSpec.coerce(fabric)
        except KeyError:
            raise ValueError(f"unknown fabric {fabric!r}; {domain}") from None
        if spec.noisy:
            raise ValueError(f"fabric {spec.token()!r} has jitter, wobble "
                             f"or loss; {domain}")
        if spec.base not in self.plain:
            raise ValueError(f"model not calibrated for fabric "
                             f"{spec.base!r}; {domain}")
        return spec.base

    def predict(
        self,
        library: str | None = None,
        fabric: str | FabricSpec = "ethernet",
        size: int = 1,
        pairs: int = 1,
        plan: CryptoPlan | None = None,
        faults: FaultPlan | None = None,
        resilience: ResiliencePolicy | None = None,
    ) -> Prediction:
        """Predict the simulator's answer for one cell.

        ``pairs == 1`` is the solitary ping-pong (latency = mean one-way
        time); ``pairs > 1`` is the OSU multipair streaming test
        (latency = steady-state per-message interval of one pair).
        *plan* selects serial vs cryptmpi sealing; *faults* +
        *resilience* add the expected-retransmission overhead.
        *fabric* is a preset name or spec; the model answers only inside
        its calibrated domain, the noise-free calibrated presets.
        """
        fabric = self._calibrated_fabric(fabric)
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
        eff_plan = plan if plan is not None else (
            CryptoPlan(library=library) if library is not None else None
        )

        loss = 0.0
        if faults is not None:
            # plain MPI silently accepts corruption (no retransmit);
            # encrypted MPI NACKs it, so corruption costs a resend too
            loss = faults.drop + (faults.corrupt if library is not None
                                  else 0.0)
            if loss > 0.0 and resilience is None:
                raise ValueError(
                    "faults with a nonzero loss rate deadlock the "
                    "simulated exchange without a retransmission "
                    "policy; pass resilience=ResiliencePolicy(...)"
                )

        if pairs == 1:
            latency = self._pingpong_latency(fabric, size, library, eff_plan)
        else:
            latency = self._multipair_interval(fabric, size, library,
                                               eff_plan, pairs)
        if loss > 0.0:
            latency += self._fault_overhead(fabric, size, library, loss,
                                            resilience)

        per_pair = size / latency
        family = (f"{fabric}/plain" if library is None
                  else f"{fabric}/{library}")
        conf = self.confidence_bounds.get(family, CONFIDENCE_FLOOR)
        if eff_plan is not None and eff_plan.pipelined:
            conf += self.margins.get(f"{fabric}/cryptmpi", 0.0)
        if pairs > 1:
            conf += self.margins.get(f"{fabric}/multipair", 0.0)
        if loss > 0.0:
            conf += self.margins.get(f"{fabric}/faults", 0.0)
        return Prediction(
            latency=latency,
            goodput=pairs * per_pair,
            per_pair_goodput=per_pair,
            confidence=min(conf, 0.95),
            family=family,
        )

    # -- internals ------------------------------------------------------------

    def _crypto_curve(self, fabric: str, library: str) -> PiecewiseAffine:
        key = f"{fabric}/{library}"
        curve = self.crypto.get(key)
        if curve is None:
            raise ValueError(f"model not calibrated for {key!r}; "
                             f"calibrated: {sorted(self.crypto)}")
        return curve

    def _op_time(self, fabric: str, library: str, size: int) -> float:
        """One seal *or* open of *size* bytes: half the fitted one-way
        crypto delta (encrypt at the sender + decrypt at the receiver)."""
        return self._crypto_curve(fabric, library)(size) / 2.0

    def _pingpong_latency(
        self, fabric: str, size: int, library: str | None,
        plan: CryptoPlan | None,
    ) -> float:
        base = self.plain[fabric](size)
        if library is None:
            return base
        assert plan is not None
        if not plan.pipelined or size <= plan.chunk_bytes:
            return base + self._crypto_curve(fabric, library)(size)
        return self._cryptmpi_latency(fabric, size, library, plan)

    def _cryptmpi_latency(
        self, fabric: str, size: int, library: str, plan: CryptoPlan
    ) -> float:
        """Pipelined one-way time: the wave model of the CoreAllocator.

        Chunk seals run on helper cores in waves of the simulator's own
        :func:`~repro.models.cpu.pipeline_waves`; the wire streams
        chunks at the fitted per-message interval; whichever bound is
        slower sets the pace, plus one chunk's fill and drain.
        """
        c = plan.chunk_bytes
        n = -(-size // c)
        rem = size - (n - 1) * c  # the partial last chunk (1..c bytes)
        cap = plan.helper_cores
        cores = PINGPONG_HELPERS if cap is None else min(cap, PINGPONG_HELPERS)
        cores = max(cores, 1)  # cap 0 = serial-chunked on the rank's core

        def schedule(nchunks: int, last: int) -> float:
            """max(compute, wire) + drain for nchunks, last one partial."""
            op_c = self._op_time(fabric, library, c)
            op_r = self._op_time(fabric, library, last)
            waves = pipeline_waves(nchunks, cores)
            in_last_wave = nchunks - (waves - 1) * cores
            compute = (waves - 1) * op_c + (
                op_r if in_last_wave == 1 else op_c
            )
            wire = (op_c + (nchunks - 2) * self.stream[fabric](c)
                    + self.stream[fabric](last))
            tail = self.plain[fabric](last) + op_r
            return max(compute, wire) + tail

        t = schedule(n, rem)
        if n >= 3:
            # monotone across chunk boundaries: a partial extra chunk
            # may not predict faster than the previous full multiple
            t = max(t, schedule(n - 1, c))
        # Affine correction fitted on the anchor cells: the slope
        # absorbs systematic schedule bias, the offset the fixed
        # pipeline fill cost a pure scale cannot express at small
        # chunk counts.
        t = t * self.cryptmpi_scale[fabric] + self.cryptmpi_offset[fabric]
        # Per-chunk-size wire penalty: the per-chunk cost drifts with
        # the chunk size relative to the 64 KiB reference geometry the
        # affine fit is anchored on; d0 is a per-train and d1 a
        # per-chunk surcharge, interpolated in the chunk size.
        d0, d1 = self._chunk_penalty(fabric, c)
        t += d0 + n * d1
        # never cheaper than the serial prediction of a single chunk
        # (keeps the serial -> pipelined boundary monotone in size)
        serial_floor = (self.plain[fabric](c)
                        + self._crypto_curve(fabric, library)(c))
        return max(t, serial_floor)

    def _chunk_penalty(self, fabric: str, chunk_bytes: int) -> tuple:
        """(per-train, per-chunk) surcharge at *chunk_bytes*.

        Fitted points are anchored at the calibrated chunk sizes (the
        64 KiB reference is zero by construction); between them the
        surcharge interpolates linearly in the chunk size, below the
        smallest it vanishes, and beyond the largest it extrapolates
        the last slope, clamped non-negative.
        """
        pts = self.cryptmpi_penalty[fabric]
        if chunk_bytes <= pts[0][0] or len(pts) == 1:
            return 0.0, 0.0  # the reference point carries zero surcharge
        for (c0, a0, b0), (c1, a1, b1) in zip(pts, pts[1:]):
            if chunk_bytes <= c1:
                w = (chunk_bytes - c0) / (c1 - c0)
                return a0 + w * (a1 - a0), b0 + w * (b1 - b0)
        (c0, a0, b0), (c1, a1, b1) = pts[-2], pts[-1]
        w = (chunk_bytes - c0) / (c1 - c0)
        return (max(a0 + w * (a1 - a0), 0.0),
                max(b0 + w * (b1 - b0), 0.0))

    def _multipair_interval(
        self, fabric: str, size: int, library: str | None,
        plan: CryptoPlan | None, pairs: int,
    ) -> float:
        regime = "large" if size >= CHUNK_KNEE else "small"
        f = self.pair_share[f"{fabric}/{regime}"].share(pairs)
        wire = self.stream[fabric](size) / f
        if library is None:
            return wire
        assert plan is not None
        if not plan.pipelined or size <= plan.chunk_bytes:
            # Serial sealing occupies the sender's own core per message,
            # but much of it hides in the NIC-contention gaps of the
            # window — the fitted overlap factor says how much leaks
            # into the interval; the seal itself is a hard floor.
            op = self._op_time(fabric, library, size)
            return max(wire + self.seal_overlap[fabric] * op, op)
        c = plan.chunk_bytes
        n = -(-size // c)
        op = self._op_time(fabric, library, c)
        helpers_total = max(CORES_PER_NODE - pairs, 0)
        cap = plan.helper_cores
        conc = helpers_total // pairs
        if cap is not None:
            conc = min(conc, cap)
        seal_int = op * n if conc < 1 else op * n / conc
        regime_c = "large" if c >= CHUNK_KNEE else "small"
        f_c = self.pair_share[f"{fabric}/{regime_c}"].share(pairs)
        chunk_wire = n * self.stream[fabric](c) / f_c
        return max(wire, seal_int, chunk_wire)

    def _fault_overhead(
        self, fabric: str, size: int, library: str | None, loss: float,
        policy: ResiliencePolicy,
    ) -> float:
        """Expected extra latency per message under a loss rate.

        Closed form: a message lost ``k`` times in a row (probability
        ``loss**k``) waits ``retry_delay(k)`` past its expected delivery
        and pays one more delivery; summing over the retry budget gives
        ``sum_{k=1}^{R} loss^k * (retry_delay(k) + resend)`` with the
        resend approximated by one more fitted one-way delivery (an
        encrypted retransmission is decrypted again, so it pays the
        crypto delta too) — monotone in both *loss* and *size* by
        construction.
        """
        resend = self.plain[fabric](size)
        if library is not None:
            resend += self._crypto_curve(fabric, library)(size)
        extra = 0.0
        for k in range(1, policy.max_retries + 1):
            extra += loss ** k * (policy.retry_delay(k) + resend)
        return extra

    # -- determinism digest ---------------------------------------------------

    def token(self) -> str:
        """Canonical text form of every fitted number.

        Two calibrations from the same anchor cells produce
        byte-identical tokens (pinned by the golden digest in
        ``tests/goldens/predict_model.json``).  The code fingerprint is
        deliberately *excluded*: only a change in the fitted numbers
        themselves moves the digest.
        """
        lines = [f"predict-model v1 anchors={self.anchor_count}"]
        for name, curves in (("plain", self.plain), ("crypto", self.crypto),
                             ("stream", self.stream)):
            for key in sorted(curves):
                pw = curves[key]
                segs = ";".join(
                    f"hi={seg.hi!r},a={seg.a!r},b={seg.b!r}"
                    for seg in pw.segments
                )
                lines.append(f"{name}[{key}] {segs}")
        for key in sorted(self.pair_share):
            pts = ";".join(f"{p}:{f!r}" for p, f in self.pair_share[key].points)
            lines.append(f"pair_share[{key}] {pts}")
        for key in sorted(self.cryptmpi_penalty):
            pts = ";".join(f"{c}:{d0!r}:{d1!r}"
                           for c, d0, d1 in self.cryptmpi_penalty[key])
            lines.append(f"cryptmpi_penalty[{key}] {pts}")
        for name, table in (("cryptmpi_scale", self.cryptmpi_scale),
                            ("cryptmpi_offset", self.cryptmpi_offset),
                            ("seal_overlap", self.seal_overlap),
                            ("confidence", self.confidence_bounds),
                            ("margin", self.margins)):
            for key in sorted(table):
                lines.append(f"{name}[{key}] {table[key]!r}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """sha256 of :meth:`token`, truncated like campaign digests."""
        return hashlib.sha256(self.token().encode()).hexdigest()[:16]


# -- fitting ------------------------------------------------------------------


def _fit_model(
    cells: tuple[AnchorCell, ...], values: list[float]
) -> PredictionModel:
    """Fit every family from the simulated anchor values."""
    from repro.experiments.campaign import code_fingerprint

    by = {}  # (purpose, role) -> list of (cell, value)
    for cell, value in zip(cells, values):
        by.setdefault((cell.purpose, cell.role), []).append((cell, value))

    def of(purpose, role="fit", **match):
        out = []
        for cell, value in by.get((purpose, role), []):
            if all(getattr(cell, k) == v for k, v in match.items()):
                out.append((cell, value))
        return out

    plain: dict = {}
    crypto: dict = {}
    stream: dict = {}
    pair_share: dict = {}
    cryptmpi_scale: dict = {}
    cryptmpi_offset: dict = {}
    cryptmpi_penalty: dict = {}
    seal_overlap: dict = {}

    for fabric in FABRICS:
        knees = tuple(sorted(set(PLAIN_KNEES)
                             | {get_network(fabric).eager_threshold}))
        pts = [(c.size, v) for c, v in of("plain", fabric=fabric)]
        plain[fabric] = fit_monotone(pts, knees)

        for lib in PROFILED_LIBRARIES:
            deltas = [
                (c.size, max(v - plain[fabric](c.size), 1e-9))
                for c, v in of("crypto", fabric=fabric, library=lib)
            ]
            crypto[f"{fabric}/{lib}"] = fit_monotone(deltas, CRYPTO_KNEES)

        # per-message streaming interval of one pair: size / agg rate
        stream_cells = of("stream", fabric=fabric)
        stream_pts = [(c.size, c.size / v) for c, v in stream_cells]
        stream[fabric] = fit_monotone(stream_pts, (64 * KIB,))
        rate1 = {c.size: v for c, v in stream_cells}

        # max-min-fair share factors, one curve per NIC-sharing regime
        factors: dict[str, list[tuple[int, float]]] = {
            "small": [(1, 1.0)], "large": [(1, 1.0)],
        }
        for c, v in of("pairs", fabric=fabric):
            regime = "large" if c.size >= CHUNK_KNEE else "small"
            factors[regime].append(
                (c.pairs, min(v / (c.pairs * rate1[c.size]), 1.0))
            )
        for regime, pts in factors.items():
            pts.sort()
            running, mono = math.inf, []
            for p, fval in pts:
                running = min(running, fval)
                mono.append((p, running))
            factors[regime] = mono
        # sharing can only get worse past the knee: a p-pair large
        # message may not predict faster than a small one
        factors["large"] = [
            (p, min(fl, fs))
            for (p, fl), (_, fs) in zip(factors["large"], factors["small"])
        ]
        for regime, pts in factors.items():
            pair_share[f"{fabric}/{regime}"] = PairShareCurve(tuple(pts))

        cryptmpi_scale[fabric] = 1.0  # provisional while measuring ratios
        cryptmpi_offset[fabric] = 0.0
        cryptmpi_penalty[fabric] = ((CRYPTMPI_CHUNK, 0.0, 0.0),)
        seal_overlap[fabric] = 1.0

    provisional = PredictionModel(
        plain=plain, crypto=crypto, stream=stream, pair_share=pair_share,
        cryptmpi_scale=cryptmpi_scale, cryptmpi_offset=cryptmpi_offset,
        cryptmpi_penalty=cryptmpi_penalty, seal_overlap=seal_overlap,
        confidence_bounds={}, margins={}, anchor_count=len(cells),
        fingerprint="",
    )

    for fabric in FABRICS:
        # streaming seal exposure: how much of the per-message seal cost
        # survives the NIC-contention overlap of the multipair window
        gammas = []
        for c, v in of("mp_crypto", fabric=fabric):
            interval = c.size * c.pairs / v
            regime = "large" if c.size >= CHUNK_KNEE else "small"
            wire = (stream[fabric](c.size)
                    / pair_share[f"{fabric}/{regime}"].share(c.pairs))
            op = provisional._op_time(fabric, c.library, c.size)
            gammas.append(min(max((interval - wire) / op, 0.0), 2.0))
        gammas.sort()
        mid = len(gammas) // 2
        seal_overlap[fabric] = (
            gammas[mid] if len(gammas) % 2
            else 0.5 * (gammas[mid - 1] + gammas[mid])
        )
        # sim ~= kappa * schedule + beta: least squares over the fit
        # cells (all at the CRYPTMPI_CHUNK reference geometry).  The
        # offset beta captures the fixed pipeline fill cost a pure
        # scale factor cannot express at small chunk counts.
        pts = [
            (provisional._cryptmpi_latency(fabric, c.size, c.library,
                                           c.plan), v)
            for c, v in of("cryptmpi", fabric=fabric)
        ]
        npts = len(pts)
        sx = sum(x for x, _ in pts)
        sy = sum(y for _, y in pts)
        sxx = sum(x * x for x, _ in pts)
        sxy = sum(x * y for x, y in pts)
        den = npts * sxx - sx * sx
        kappa = (npts * sxy - sx * sy) / den if den else 0.0
        beta = (sy - kappa * sx) / npts if den else -1.0
        if kappa <= 0.0 or beta < 0.0:
            # degenerate fit: fall back to the median ratio (monotone,
            # no offset) rather than a negative fill or inverted slope
            ratios = sorted(y / x for x, y in pts)
            mid = len(ratios) // 2
            kappa = (ratios[mid] if len(ratios) % 2
                     else 0.5 * (ratios[mid - 1] + ratios[mid]))
            beta = 0.0
        cryptmpi_scale[fabric] = kappa
        cryptmpi_offset[fabric] = beta

        # Per-chunk-size penalty from the capped-geometry anchors: for
        # each anchored chunk size, two cells at different chunk counts
        # pin a per-train (d0) and per-chunk (d1) surcharge over the
        # corrected reference model; clamped non-negative so the
        # prediction stays monotone in size.
        by_chunk: dict = {}
        for c, v in of("cryptmpi_capped", fabric=fabric):
            by_chunk.setdefault(c.plan.chunk_bytes, []).append((c, v))
        penalty = [(CRYPTMPI_CHUNK, 0.0, 0.0)]
        for cbytes in sorted(by_chunk):
            resid = []
            for c, v in by_chunk[cbytes]:
                pred = provisional._cryptmpi_latency(
                    fabric, c.size, c.library, c.plan
                )
                resid.append((-(-c.size // cbytes), v - pred))
            resid.sort()
            (n1, e1), (n2, e2) = resid[0], resid[-1]
            if n2 > n1:
                d1 = (e2 - e1) / (n2 - n1)
                d0 = e1 - n1 * d1
            else:
                d0, d1 = 0.5 * (e1 + e2), 0.0
            if d1 < 0.0:
                d0, d1 = 0.5 * (e1 + e2), 0.0
            d0 = max(d0, 0.0)
            penalty.append((cbytes, d0, d1))
        cryptmpi_penalty[fabric] = tuple(penalty)

    # -- holdout evaluation: the confidence bounds ----------------------------

    def rel_err(cell: AnchorCell, sim: float) -> float:
        pred = provisional.predict(
            library=cell.library, fabric=cell.fabric, size=cell.size,
            pairs=cell.pairs, plan=cell.plan, faults=cell.faults,
            resilience=cell.resilience,
        )
        if cell.kind == "multipair":
            return abs(pred.goodput - sim) / sim
        return abs(pred.latency - sim) / sim

    confidence_bounds: dict = {}
    margins: dict = {}
    for fabric in FABRICS:
        errs = [rel_err(c, v) for c, v in of("plain", "holdout",
                                             fabric=fabric)]
        confidence_bounds[f"{fabric}/plain"] = max(
            max(errs), CONFIDENCE_FLOOR
        )
        for lib in PROFILED_LIBRARIES:
            errs = [rel_err(c, v) for c, v in of("crypto", "holdout",
                                                 fabric=fabric, library=lib)]
            confidence_bounds[f"{fabric}/{lib}"] = max(
                max(errs), CONFIDENCE_FLOOR
            )
        for purposes, margin_key in ((("cryptmpi", "cryptmpi_capped"),
                                      "cryptmpi"),
                                     (("pairs",), "multipair"),
                                     (("fault",), "faults")):
            errs = [rel_err(c, v)
                    for purpose in purposes
                    for c, v in of(purpose, "holdout", fabric=fabric)]
            margins[f"{fabric}/{margin_key}"] = max(max(errs),
                                                    CONFIDENCE_FLOOR)

    return PredictionModel(
        plain=plain, crypto=crypto, stream=stream, pair_share=pair_share,
        cryptmpi_scale=cryptmpi_scale, cryptmpi_offset=cryptmpi_offset,
        cryptmpi_penalty=cryptmpi_penalty, seal_overlap=seal_overlap,
        confidence_bounds=confidence_bounds, margins=margins,
        anchor_count=len(cells), fingerprint=code_fingerprint(),
    )


# -- calibration entry point --------------------------------------------------

_MODEL_CACHE: dict[str, PredictionModel] = {}


def calibrate(
    *, cache_dir: str | None = "results/cache", force: bool = False
) -> PredictionModel:
    """Fit (or fetch) the prediction model from the anchor cells.

    Anchor simulations are memoized through the campaign result cache
    under *cache_dir* (``None`` disables the on-disk cache); the fitted
    model itself is kept per-process so repeated :func:`calibrate`
    calls are free.  *force* refits from (possibly cached) anchor
    values, bypassing only the in-process model cache.
    """
    key = cache_dir or "<none>"
    if not force and key in _MODEL_CACHE:
        return _MODEL_CACHE[key]
    cells = anchor_cells()
    values = run_anchor_cells(cells, cache_dir)
    model = _fit_model(cells, values)
    _MODEL_CACHE[key] = model
    return model


#: committed round-trip fixture: calibrating from the same anchors must
#: reproduce this digest byte-for-byte (tests/models/test_predict.py)
GOLDEN_FIXTURE = "tests/goldens/predict_model.json"


def write_golden(
    path: str = GOLDEN_FIXTURE,
    *, cache_dir: str | None = "results/cache",
) -> dict:
    """Regenerate the golden model-digest fixture (CLI ``predict
    --write-golden``); writing it is a statement that the fitted
    numbers intentionally moved."""
    import json

    model = calibrate(cache_dir=cache_dir, force=True)
    doc = {
        "comment": "sha256[:16] of PredictionModel.token(); regenerate "
        "with: python -m repro.experiments predict --write-golden",
        "anchor_cells": model.anchor_count,
        "digest": model.digest(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc

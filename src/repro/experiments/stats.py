"""Statistically rigorous measurement for the experiment registry.

The simulator is deterministic, so repetitions only make sense over
*seeded variation* — a noisy fabric (:class:`repro.models.network.
FabricSpec`) whose jitter/wobble/loss streams are re-seeded per
repetition.  This module supplies the machinery Hunold &
Carpen-Amarie's "MPI Benchmarking Revisited" (PAPERS.md) asks of a
benchmark report:

- a **seeded repetition runner** (:func:`run_reps`, :func:`rep_seeds`,
  :func:`rep_networks`) that derives one child seed per repetition from
  a master seed, so the whole set is byte-identical run to run;
- **estimators**: mean/median and percentile-bootstrap confidence
  intervals (:func:`bootstrap_ci`, :func:`estimate`) — seeded, no
  wall-clock, no global RNG state;
- **sound aggregation** (:func:`aggregate_rate`): rates aggregate as
  ratio-of-sums, never mean-of-ratios.

Everything here is pure computation on floats; determinism is the
whole point (DET lint rules forbid wall-clock and unseeded RNGs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.util.specs import FRACTION, INT, Grammar, Spec

#: ISSUE/acceptance floor: every hostile cell reports a CI from at
#: least this many seeded repetitions.
DEFAULT_REPS = 20
DEFAULT_CONFIDENCE = 0.95
#: Percentile-bootstrap resample count — enough for stable 95% bounds
#: on 20-50 reps, small enough to stay cheap in the per-cell loop.
BOOTSTRAP_RESAMPLES = 400


@dataclass(frozen=True)
class StatsSpec(Spec):
    """How a job's statistics are collected, in canonical form.

    ``reps`` seeded repetitions; two-sided ``confidence`` percentile-
    bootstrap intervals; ``seed`` is the master seed offsetting every
    repetition's fabric seed (and seeding the bootstrap resampler).
    """

    grammar = Grammar("stats", keys={"reps": ("reps", INT),
                                     "confidence": ("confidence", FRACTION),
                                     "seed": ("seed", INT)})

    reps: int = DEFAULT_REPS
    confidence: float = DEFAULT_CONFIDENCE
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.reps, int) or isinstance(self.reps, bool) \
                or self.reps < 1:
            raise ValueError(f"reps must be an int >= 1, got {self.reps!r}")
        if isinstance(self.confidence, int) and not isinstance(self.confidence, bool):
            object.__setattr__(self, "confidence", float(self.confidence))
        if not isinstance(self.confidence, float) \
                or not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be a fraction in (0, 1), got {self.confidence!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")


def parse_stats_spec(spec: str | StatsSpec) -> StatsSpec:
    """Parse ``"reps=20,confidence=95%,seed=7"`` into a StatsSpec (a
    StatsSpec passes through).

    >>> parse_stats_spec("reps=30,confidence=99%")
    StatsSpec(reps=30, confidence=0.99, seed=0)
    """
    return StatsSpec.coerce(spec)


# --------------------------------------------------------------------------
# estimators
# --------------------------------------------------------------------------


def mean(samples: Sequence[float]) -> float:
    xs = [float(x) for x in samples]
    if not xs:
        raise ValueError("mean of an empty sample")
    return sum(xs) / len(xs)


def median(samples: Sequence[float]) -> float:
    xs = sorted(float(x) for x in samples)
    if not xs:
        raise ValueError("median of an empty sample")
    mid = len(xs) // 2
    if len(xs) % 2:
        return xs[mid]
    return 0.5 * (xs[mid - 1] + xs[mid])


def bootstrap_ci(
    samples: Sequence[float],
    *,
    statistic: Callable[[Sequence[float]], float] = median,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = 0,
    resamples: int = BOOTSTRAP_RESAMPLES,
) -> tuple[float, float]:
    """Seeded percentile-bootstrap CI for *statistic* over *samples*.

    Deterministic by construction: its own ``random.Random(seed)``,
    sorted resample statistics, index percentiles.  A single sample
    has no resampling distribution — the interval collapses to it.
    """
    xs = [float(x) for x in samples]
    if not xs:
        raise ValueError("bootstrap over an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    if len(xs) == 1:
        return xs[0], xs[0]
    rng = random.Random(seed)
    n = len(xs)
    stats = sorted(
        statistic([xs[rng.randrange(n)] for _ in range(n)])
        for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    lo_i = int(alpha * (resamples - 1))
    hi_i = int((1.0 - alpha) * (resamples - 1))
    return stats[lo_i], stats[hi_i]


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its bootstrap interval."""

    n: int
    mean: float
    median: float
    lo: float
    hi: float
    confidence: float
    #: the point the interval brackets (median by default)
    center: float

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def scaled(self, factor: float) -> "Estimate":
        """The same estimate in different units (e.g. seconds -> ms)."""
        return Estimate(
            n=self.n, mean=self.mean * factor, median=self.median * factor,
            lo=self.lo * factor, hi=self.hi * factor,
            confidence=self.confidence, center=self.center * factor,
        )


def estimate(
    samples: Sequence[float],
    *,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = 0,
    center: str = "median",
    resamples: int = BOOTSTRAP_RESAMPLES,
) -> Estimate:
    """Summarize repetitions: center statistic + bootstrap CI.

    The median is the default center, as "MPI Benchmarking Revisited"
    recommends for latency-type metrics (robust to the long right tail
    retransmission storms produce).
    """
    if center not in ("median", "mean"):
        raise ValueError(f"center must be 'median' or 'mean', got {center!r}")
    statistic = median if center == "median" else mean
    lo, hi = bootstrap_ci(
        samples, statistic=statistic, confidence=confidence, seed=seed,
        resamples=resamples,
    )
    return Estimate(
        n=len(samples), mean=mean(samples), median=median(samples),
        lo=lo, hi=hi, confidence=confidence, center=statistic(samples),
    )


def aggregate_rate(
    numerators: Iterable[float], denominators: Iterable[float]
) -> float:
    """Ratio-of-sums: the sound aggregate of rate metrics.

    Averaging per-repetition rates over-weights lucky (fast)
    repetitions; total-work-over-total-time does not.
    """
    nums = [float(x) for x in numerators]
    dens = [float(x) for x in denominators]
    if len(nums) != len(dens):
        raise ValueError(
            f"{len(nums)} numerators vs {len(dens)} denominators"
        )
    num = sum(nums)
    den = sum(dens)
    if den <= 0.0:
        raise ValueError(f"non-positive aggregate denominator {den!r}")
    return num / den


# --------------------------------------------------------------------------
# seeded repetition runner
# --------------------------------------------------------------------------


def rep_seeds(spec: StatsSpec) -> tuple[int, ...]:
    """One child seed per repetition, derived from the master seed."""
    return tuple(spec.seed + i for i in range(spec.reps))


def run_reps(measure: Callable[[int], float], spec: StatsSpec) -> tuple[float, ...]:
    """Call ``measure(child_seed)`` once per repetition, in seed order."""
    return tuple(float(measure(s)) for s in rep_seeds(spec))


def rep_networks(network, spec: StatsSpec) -> tuple:
    """The per-repetition ``network=`` arguments for one measured job.

    Fabric specs (or spec strings) get their seed offset per repetition
    — each rep draws an independent, reproducible noise/loss stream.
    Prebuilt model instances cannot be re-seeded and repeat unchanged
    (identical reps on a clean model: the CI collapses, correctly).
    """
    from repro.models.network import FabricSpec

    if isinstance(network, (str, FabricSpec)):
        fabric = FabricSpec.coerce(network)
        return tuple(
            replace(fabric, seed=fabric.seed + s) for s in rep_seeds(spec)
        )
    return tuple(network for _ in range(spec.reps))


@dataclass(frozen=True)
class JobStats:
    """Per-job repetition statistics attached to ``JobResult.stats``."""

    metric: str
    samples: tuple[float, ...]
    estimate: Estimate
    spec: StatsSpec


def job_stats(
    samples: Sequence[float], spec: StatsSpec, metric: str = "duration"
) -> JobStats:
    return JobStats(
        metric=metric,
        samples=tuple(float(s) for s in samples),
        estimate=estimate(
            samples, confidence=spec.confidence, seed=spec.seed
        ),
        spec=spec,
    )

"""The paper's benchmark statistics methodology (§V "Benchmark methodology").

The paper runs each experiment at least 20 times, up to 100, until the
sample standard deviation falls within 5 % of the arithmetic mean; if
that never happens it keeps running until the 99 % confidence interval
is within 5 % of the mean.  For the encryption–decryption benchmark the
floor is 5 repetitions.  ``paper_methodology_mean`` implements exactly
that stopping rule for an arbitrary measurement callable.

The simulator is deterministic unless seeded otherwise, so in most
experiments the rule terminates at the floor; the machinery still
matters for the measured-crypto benchmarks (real wall-clock timings) and
for randomized-workload runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

# Two-sided 99% z critical value; sample counts here are large enough
# (>=20) that the normal approximation matches the paper's procedure.
_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class RunStats:
    """Summary statistics for one benchmark configuration."""

    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("RunStats requires at least one sample")

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def stddev(self) -> float:
        """Sample standard deviation (ddof=1); zero for a single sample."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    @property
    def ci99_halfwidth(self) -> float:
        """Half-width of the 99% confidence interval of the mean."""
        if self.n < 2:
            return 0.0
        return _Z99 * self.stddev / math.sqrt(self.n)

    @property
    def rel_stddev(self) -> float:
        """Standard deviation relative to the mean (the paper's 5% gate)."""
        mu = self.mean
        if mu == 0:
            return 0.0 if self.stddev == 0 else math.inf
        return self.stddev / abs(mu)

    def within_paper_gate(self, tolerance: float = 0.05) -> bool:
        """True if stddev <= tolerance * mean, the paper's acceptance rule."""
        return self.rel_stddev <= tolerance


def paper_methodology_mean(
    measure: Callable[[], float],
    *,
    min_runs: int = 20,
    escalation_runs: int = 100,
    max_runs: int = 1000,
    tolerance: float = 0.05,
) -> RunStats:
    """Repeat *measure* following the paper's stopping rule and return stats.

    Runs at least *min_runs* times; keeps running (up to *escalation_runs*)
    until the sample stddev is within *tolerance* of the mean; past that,
    keeps running until the 99 % CI half-width is within *tolerance* of the
    mean, giving up at *max_runs* (the paper does not state a cap; ours
    exists so a pathological measurement cannot loop forever).
    """
    if min_runs < 1:
        raise ValueError("min_runs must be >= 1")
    if not (min_runs <= escalation_runs <= max_runs):
        raise ValueError("need min_runs <= escalation_runs <= max_runs")
    samples: list[float] = [measure() for _ in range(min_runs)]
    while True:
        stats = RunStats(tuple(samples))
        if stats.within_paper_gate(tolerance):
            return stats
        if len(samples) >= escalation_runs:
            mu = stats.mean
            if mu != 0 and stats.ci99_halfwidth <= tolerance * abs(mu):
                return stats
            if len(samples) >= max_runs:
                return stats
        samples.append(measure())


def overhead_percent(encrypted: float, baseline: float) -> float:
    """Overhead of *encrypted* relative to *baseline* in percent.

    The paper reports overhead as (t_enc - t_base) / t_base * 100 for
    timings, and equivalently from throughput ratios for bandwidths.
    """
    if baseline <= 0:
        raise ValueError(f"non-positive baseline: {baseline}")
    return (encrypted - baseline) / baseline * 100.0


def total_time_overhead_percent(
    encrypted_times: Sequence[float], baseline_times: Sequence[float]
) -> float:
    """NAS-style overhead from *totals*, not averaged per-benchmark ratios.

    The paper (footnote 2, citing Fleming & Wallace) derives each
    library's NAS overhead from the total time over all benchmarks rather
    than the meaningless average of per-benchmark ratios.
    """
    if len(encrypted_times) != len(baseline_times):
        raise ValueError("series length mismatch")
    if not encrypted_times:
        raise ValueError("empty series")
    return overhead_percent(sum(encrypted_times), sum(baseline_times))

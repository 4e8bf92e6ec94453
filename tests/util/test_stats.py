"""Tests for the paper's statistics methodology."""

import itertools

import pytest

from repro.util.stats import (
    RunStats,
    overhead_percent,
    paper_methodology_mean,
    total_time_overhead_percent,
)


def test_runstats_basics():
    s = RunStats((1.0, 2.0, 3.0))
    assert s.n == 3
    assert s.mean == pytest.approx(2.0)
    assert s.stddev == pytest.approx(1.0)
    assert not s.within_paper_gate()


def test_runstats_single_sample():
    s = RunStats((5.0,))
    assert s.stddev == 0.0
    assert s.ci99_halfwidth == 0.0
    assert s.within_paper_gate()


def test_runstats_empty_rejected():
    with pytest.raises(ValueError):
        RunStats(())


def test_deterministic_measurement_stops_at_floor():
    calls = itertools.count()

    def measure():
        next(calls)
        return 7.0

    stats = paper_methodology_mean(measure, min_runs=20)
    assert stats.n == 20
    assert stats.mean == 7.0


def test_noisy_measurement_keeps_sampling_until_gate():
    values = iter([10.0, 20.0] + [15.0] * 500)
    stats = paper_methodology_mean(lambda: next(values), min_runs=2, escalation_runs=100)
    assert stats.n > 2
    assert stats.within_paper_gate() or stats.ci99_halfwidth <= 0.05 * stats.mean


def test_escalation_to_ci_criterion():
    # Alternating values never meet the stddev gate but the CI tightens.
    values = itertools.cycle([10.0, 14.0])
    stats = paper_methodology_mean(
        lambda: next(values), min_runs=20, escalation_runs=40, max_runs=5000
    )
    assert stats.n >= 40
    assert stats.ci99_halfwidth <= 0.05 * stats.mean


def test_max_runs_cap():
    values = itertools.cycle([0.0, 100.0])  # hopeless variance
    stats = paper_methodology_mean(
        lambda: next(values), min_runs=4, escalation_runs=8, max_runs=16
    )
    assert stats.n == 16


def test_bad_run_bounds():
    with pytest.raises(ValueError):
        paper_methodology_mean(lambda: 1.0, min_runs=0)
    with pytest.raises(ValueError):
        paper_methodology_mean(lambda: 1.0, min_runs=10, escalation_runs=5)


def test_overhead_percent():
    # The paper's Ethernet headline: 99.81s vs 88.52s -> 12.75%.
    assert overhead_percent(99.81, 88.52) == pytest.approx(12.75, abs=0.01)
    with pytest.raises(ValueError):
        overhead_percent(1.0, 0.0)


def test_total_time_overhead_is_not_mean_of_ratios():
    enc = [2.0, 30.0]
    base = [1.0, 29.0]
    # mean-of-ratios would say (100% + 3.4%)/2 ≈ 51.7%; totals say 6.7%.
    assert total_time_overhead_percent(enc, base) == pytest.approx(6.666, abs=0.01)
    with pytest.raises(ValueError):
        total_time_overhead_percent([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        total_time_overhead_percent([], [])

"""Static-vs-dynamic conformance over the goldens."""

from collections import Counter

import pytest

from repro.analysis.conformance import (
    ConformanceReport,
    check_golden,
    conformance_report,
)
from repro.experiments.goldens import GOLDEN_RUNS


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_fast_golden_conforms(name):
    report = check_golden(name)
    assert report.ok, report.format()
    assert report.unexplained_dynamic == []
    assert report.collective_agreement


def test_pingpong_predicts_every_user_message():
    report = check_golden("pingpong")
    assert sum(report.predicted_sends.values()) \
        == sum(report.dynamic_matches.values()) == 6
    assert report.unrealized_static == []


def test_collective_traffic_explained_not_diffed():
    report = check_golden("bcast")
    # bcast carries no user-tag p2p; the transport-level fan-out rides
    # internal tags and is explained by the predicted collectives
    assert sum(report.dynamic_matches.values()) == 0
    assert report.internal_matches > 0
    assert report.internal_explained


def test_report_runs_twice_byte_identical():
    assert conformance_report() == conformance_report()


# ------------------------------------------------- report mechanics
# (pure-unit: no golden run, exercises the diff/verdict logic)

def test_unexplained_dynamic_fails():
    report = ConformanceReport(name="x", nranks=2)
    report.dynamic_matches = Counter({(0, 1, 5): 1})
    assert report.unexplained_dynamic == [(0, 1, 5)]
    assert not report.ok
    assert "unexplained: rank 0 -> rank 1 tag 5" in report.format()


def test_unrealized_static_reported_but_not_fatal():
    report = ConformanceReport(name="x", nranks=2)
    report.predicted_sends = Counter({(0, 1, 5): 1})
    assert report.unrealized_static == [(0, 1, 5)]
    assert report.ok  # over-approximation is safe


def test_collective_divergence_fails():
    report = ConformanceReport(name="x", nranks=2)
    report.predicted_collectives = {0: ["barrier"], 1: ["barrier"]}
    report.dynamic_collectives = {0: ["barrier"], 1: ["allgather"]}
    assert not report.collective_agreement
    assert not report.ok


def test_empty_collectives_agree_regardless_of_key_presence():
    report = ConformanceReport(name="x", nranks=2)
    report.predicted_collectives = {0: [], 1: []}
    report.dynamic_collectives = {}
    assert report.collective_agreement


def test_incomplete_static_graph_fails_conformance():
    report = ConformanceReport(name="x", nranks=2)
    report.static_incomplete = True
    assert not report.ok

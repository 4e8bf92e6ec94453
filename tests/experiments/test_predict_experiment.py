"""The ``predict`` experiment's grid discipline, registry entry, and
the ``predict`` CLI subcommand (the full validation sweep itself is
regenerated and byte-compared with ``results/predict.*`` by ``make
check-artifacts``)."""

import json

import pytest

from repro.experiments import predict as exp
from repro.experiments.cli import main
from repro.experiments.registry import get_experiment
from repro.models.cpu import ClusterSpec
from repro.models.predict import FAULT_HOLDOUT_POLICY
from repro.simmpi.resilience import ResiliencePolicy


def test_off_anchor_sizes_exclude_anchored():
    anchored = {512, 1024, 4096, 65536}
    sizes = exp._off_anchor_sizes(anchored)
    assert sizes == sorted(sizes)
    assert not anchored & set(sizes)
    assert sizes[0] >= exp.SIZE_MIN
    assert sizes[-1] <= exp.SIZE_MIN * 2 ** exp.SIZE_OCTAVES


def test_grid_is_larger_than_anchor_floor():
    # every anchored ping-pong size removed still leaves a dense grid
    from repro.models.predict import anchor_cells

    anchored = {c.size for c in anchor_cells() if c.kind == "pingpong"}
    assert len(exp._off_anchor_sizes(anchored)) > 80


def test_registry_entry():
    entry = get_experiment("predict")
    assert entry.cost == "medium"
    assert entry.cluster == ClusterSpec(nodes=2, cores_per_node=8)
    assert entry.runner is exp.predict_validation


def test_fault_cells_fail_rather_than_fall_back_to_plaintext():
    assert {ResiliencePolicy(**policy).escalation for policy in
            (exp.FAULT_POLICY, FAULT_HOLDOUT_POLICY)} == {"fail"}


def test_runner_calibrates_without_the_anchor_cache(monkeypatch, tmp_path):
    """The registry runner simulates its anchors itself: a warm on-disk
    anchor cache must not stand in for a run the campaign asked for
    uncached or sanitized, and the runner writes no cache of its own."""
    from repro.experiments import campaign
    from repro.models import predict as engine

    class FitReached(Exception):
        pass

    def fit(cells, values):
        raise FitReached(len(values))

    opened = []

    class RecordingCache(campaign.ResultCache):
        def __init__(self, path):
            opened.append(path)
            super().__init__(str(tmp_path))

    monkeypatch.setattr(campaign, "ResultCache", RecordingCache)
    monkeypatch.setattr(engine.AnchorCell, "simulate", lambda self: 1.0)
    monkeypatch.setattr(engine, "_fit_model", fit)
    monkeypatch.setattr(engine, "_MODEL_CACHE", {})
    with pytest.raises(FitReached):
        exp.predict_validation()
    assert opened == []


# ------------------------------------------------------------ CLI surface

def test_cli_predict_human_output(capsys):
    assert main(["predict", "1MB", "--library", "boringssl",
                 "--network", "infiniband"]) == 0
    out = capsys.readouterr().out
    assert "one-way latency" in out
    assert "infiniband/boringssl" in out


def test_cli_predict_json_multipair(capsys):
    assert main(["predict", "64KB", "--pairs", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pairs"] == 4
    assert doc["library"] is None
    assert doc["goodput_Bps"] == pytest.approx(
        4 * doc["per_pair_goodput_Bps"])
    lo, hi = doc["latency_bounds_s"]
    assert lo <= doc["latency_s"] <= hi
    assert 0.0 < doc["confidence"] <= 0.95


def test_cli_predict_bad_size(capsys):
    assert main(["predict", "one-meg"]) == 2
    assert "bad size" in capsys.readouterr().err


def test_cli_predict_missing_size(capsys):
    assert main(["predict"]) == 2
    assert "size" in capsys.readouterr().err


def test_cli_predict_bad_fault_spec(capsys):
    assert main(["predict", "4KB", "--library", "openssl",
                 "--faults", "loss=0.1"]) == 2
    err = capsys.readouterr().err
    assert "bad --faults/--resilience spec" in err
    assert "drop" in err  # names the valid keys


def test_cli_predict_bad_resilience_spec(capsys):
    assert main(["predict", "4KB", "--library", "openssl",
                 "--resilience", "attempts=3"]) == 2
    assert "bad --faults/--resilience spec" in capsys.readouterr().err


def test_cli_predict_plan_without_library(capsys):
    assert main(["predict", "1MB", "--crypto", "cryptmpi:chunk=64k"]) == 2
    assert "bad prediction query" in capsys.readouterr().err


def test_cli_predict_faults_without_resilience(capsys):
    assert main(["predict", "4KB", "--library", "openssl",
                 "--faults", "drop=0.1"]) == 2
    assert "bad prediction query" in capsys.readouterr().err

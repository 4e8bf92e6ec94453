"""The ``predict`` experiment's grid, registry entry, and the
``predict`` CLI subcommand (the full validation sweep itself is
regenerated and byte-compared with ``results/predict.*`` by ``make
check-artifacts``)."""

import json

import pytest

from repro.experiments import predict as exp
from repro.experiments.cli import main
from repro.experiments.registry import get_experiment
from repro.simmpi.resilience import ResiliencePolicy


def test_grid_is_the_full_size_ladder():
    # nothing is anchored, so every ladder size is a validation cell
    assert len(exp.GRID_SIZES) == \
        exp.SIZE_OCTAVES * exp.SIZE_STEPS_PER_OCTAVE + 1
    assert exp.GRID_SIZES[0] == exp.SIZE_MIN
    assert exp.GRID_SIZES[-1] == exp.SIZE_MIN * 2 ** exp.SIZE_OCTAVES


def test_registry_entry():
    entry = get_experiment("predict")
    assert entry.runner is exp.predict_validation


def test_fault_cells_fail_rather_than_fall_back_to_plaintext():
    assert ResiliencePolicy(**exp.FAULT_POLICY).escalation == "fail"


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


def test_cli_predict_pipelined_plan_with_faults(capsys):
    assert main(["predict", "512KB", "--library", "boringssl",
                 "--crypto", "cryptmpi:chunk=64k", "--faults", "drop=0.1",
                 "--resilience", "max_retries=6,timeout=2e-4"]) == 2
    assert "faults with a pipelined plan" in capsys.readouterr().err

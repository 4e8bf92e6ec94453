"""CLI tests for the nas/analyze subcommands."""

import pytest

from repro.experiments.cli import main
from repro.workloads.nas import common


def test_nas_subcommand_ep(capsys):
    # EP is the cheap one: near-zero comm, nominal 13 s baseline.
    assert main(["nas", "ep", "--library", "boringssl"]) == 0
    out = capsys.readouterr().out
    assert "EP" in out
    assert "baseline" in out
    assert "+0.0" in out  # ~0% overhead


def test_nas_subcommand_unknown_benchmark():
    with pytest.raises(ValueError):
        main(["nas", "dc"])


def test_analyze_subcommand(capsys):
    assert main(["analyze", "2MB", "--network", "infiniband"]) == 0
    out = capsys.readouterr().out
    assert "2MB over infiniband" in out
    assert "encryption" in out
    assert "+219" in out  # the paper's 215.2% headline region


def test_analyze_ethernet_small(capsys):
    assert main(["analyze", "256B", "--library", "libsodium"]) == 0
    out = capsys.readouterr().out
    assert "256B over ethernet" in out
    assert "largest size" in out


def test_nas_subcommand_faults_and_resilience(capsys):
    # CG under a seeded lossy fabric with ack/retransmit armed: the run
    # completes and the faulty column shows a positive overhead.
    assert main([
        "nas", "cg",
        "--faults", "drop=0.004,corrupt=0.001,seed=11",
        "--resilience", "retries=6,timeout=0.0005,escalation=fail",
    ]) == 0
    out = capsys.readouterr().out
    assert "faulty" in out
    assert "baseline" in out


def test_nas_subcommand_bad_fault_spec(capsys):
    assert main(["nas", "cg", "--faults", "dorp=0.1"]) == 2
    err = capsys.readouterr().err
    assert "bad --faults/--resilience spec" in err


def test_nas_subcommand_refuses_corruption_under_a_library(capsys):
    """Encrypted NAS runs modeled byte work, where a corrupted frame
    would cost nothing: the command prints why, runs nothing, exits 2."""
    assert main(["nas", "ep", "--library", "boringssl",
                 "--faults", "drop=0.01,corrupt=0.01,seed=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "modeled byte work" in line


def test_nas_output_identical_on_both_runtimes(capsys, monkeypatch):
    outs = []
    for runtime in ("threads", "coroutines"):
        # a fresh NAS memo, so the second runtime simulates too
        monkeypatch.setattr(common, "_comm_time_cache", {})
        assert main(["nas", "ep", "--library", "boringssl",
                     "--runtime", runtime]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_run_resilience_artifacts_identical_on_both_runtimes(tmp_path,
                                                             capsys):
    for runtime in ("threads", "coroutines"):
        assert main(["run", "resilience", "--runtime", runtime,
                     "--output", str(tmp_path / runtime)]) == 0
    capsys.readouterr()
    written = sorted(p.name for p in (tmp_path / "threads").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "coroutines").iterdir())
    assert "resilience.json" in written
    # the campaign.json manifest records host times and pids, so only
    # the artifacts are compared, as make check-artifacts does
    for name in ("resilience.txt", "resilience.json"):
        assert (tmp_path / "threads" / name).read_bytes() == \
            (tmp_path / "coroutines" / name).read_bytes(), name

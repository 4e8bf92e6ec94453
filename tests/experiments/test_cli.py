"""CLI tests (fast paths only)."""

import pytest

from repro.experiments.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "fig15" in out
    assert "Table I" in out
    lines = out.splitlines()
    assert lines[0].split() == ["id", "paper", "title"]
    # the paper column starts at one offset, past the longest id
    offset = lines[0].index("paper")
    for line in lines[1:]:
        assert line[offset - 1] == " " and line[offset] != " ", line


def test_run_single_fast_experiment(capsys):
    assert main(["run", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "Encryption-decryption throughput" in out
    assert "BoringSSL" in out
    assert "(paper" in out


def test_run_table1(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "(paper) Unencrypted" in out


def test_run_deduplicates(capsys):
    assert main(["run", "fig2", "fig2"]) == 0
    out = capsys.readouterr().out
    assert out.count("--- running fig2") == 1


def test_run_with_output_dir(tmp_path, capsys):
    import json

    assert main(["run", "fig2", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "fig2.txt").exists()
    data = json.loads((tmp_path / "fig2.json").read_text())
    assert data["kind"] == "figure"
    assert data["paper_ref"] == "Fig. 2"
    assert any(s["label"] == "BoringSSL" for s in data["series"])
    assert data["headlines"]


def test_run_table_output_json(tmp_path, capsys):
    import json

    assert main(["run", "table1", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "table1.json").read_text())
    assert data["kind"] == "table"
    assert data["columns"] == ["1B", "16B", "256B", "1KB"]
    labels = [r["label"] for r in data["rows"]]
    assert "Unencrypted" in labels and "  (paper) CryptoPP" in labels


def test_run_unknown_experiment(capsys):
    assert main(["run", "table42"]) == 2
    assert "unknown experiment 'table42'" in capsys.readouterr().err
    # a retired cost-tier token is an unknown id in any spelling
    token = "Not-Slow"
    assert main(["run", token]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"unknown experiment {token.lower()!r}; known: ")


@pytest.mark.parametrize("args, message", [
    (["table42"], "unknown experiment 'table42'"),
    (["fast"], "unknown experiment 'fast'"),
    (["fig2", "-j", "0"], "-j must be >= 1"),
    # the pair can never pass, so it fails before running any cell
    (["fig2", "--no-cache", "--expect-all-cached"], "--expect-all-cached"),
], ids=["unknown-id", "retired-tier-token", "zero-jobs",
        "no-cache-expect-all-cached"])
def test_campaign_usage_error_exits_2(args, message, tmp_path, capsys):
    assert main(["campaign", *args, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    assert not any(tmp_path.iterdir())


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_run_json_flag_prints_structured_document(capsys):
    import json

    assert main(["run", "fig2", "--json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["experiment"] == "fig2"
    assert data["kind"] == "figure"
    # rendered chrome must not pollute the JSON stream
    assert "--- running" not in out


def test_run_json_flag_multiple_ids_yields_list(capsys):
    import json

    assert main(["run", "fig2", "table1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [d["experiment"] for d in data] == ["fig2", "table1"]


def _boom():
    raise RuntimeError("synthetic artifact failure")


def test_run_failure_exits_nonzero_with_summary(capsys, monkeypatch):
    from repro.experiments import registry

    broken = registry.Experiment("broken", "Fig. X", "always fails", _boom)
    monkeypatch.setitem(registry.EXPERIMENTS, "broken", broken)
    assert main(["run", "broken", "fig2"]) == 1
    err = capsys.readouterr().err
    assert "broken FAILED" in err
    assert "synthetic artifact failure" in err
    assert "1 of 2 experiments failed: broken" in err


def test_campaign_cold_then_warm_cache(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["campaign", "fig2", "--output", out]) == 0
    cold = capsys.readouterr().out
    assert "--- campaign: 1 cells, 1 worker(s), cache on" in cold
    assert "fig2" in cold and "worker" in cold
    assert "campaign: 1 ok, 0 failed" in cold
    assert "manifest:" in cold
    # a second run is served entirely from the cache
    assert main(["campaign", "fig2", "--output", out,
                 "--expect-all-cached"]) == 0
    warm = capsys.readouterr().out
    assert "cache hit" in warm
    assert "(1 cache hit(s), 0 executed)" in warm


def test_campaign_expect_all_cached_fails_cold(tmp_path, capsys):
    assert main(["campaign", "fig2", "--output", str(tmp_path),
                 "--expect-all-cached"]) == 1
    err = capsys.readouterr().err
    assert "--expect-all-cached" in err
    assert "fig2" in err


def test_campaign_failure_lists_failed_cells(tmp_path, capsys, monkeypatch):
    from repro.experiments import registry

    broken = registry.Experiment("broken", "Fig. X", "always fails", _boom)
    monkeypatch.setitem(registry.EXPERIMENTS, "broken", broken)
    assert main(["campaign", "broken", "fig2", "--no-cache",
                 "--output", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "broken       FAILED" in captured.out
    assert "failed: broken" in captured.err
    # the healthy cell still ran and exported its artifact
    assert (tmp_path / "fig2.json").exists()


def test_campaign_rejects_empty_selection(capsys, monkeypatch):
    from repro.experiments import registry

    monkeypatch.setattr(registry, "EXPERIMENTS", {})
    assert main(["campaign"]) == 2
    assert "no experiments selected" in capsys.readouterr().err


def test_bench_smoke_subcommand(tmp_path, capsys):
    import json

    out_path = tmp_path / "bench.json"
    assert main(["bench", "--smoke", "--output", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "gcm_seal" in out
    doc = json.loads(out_path.read_text())
    assert doc["mode"] == "smoke"
    assert doc["benches"]["experiment_fig6"]["seconds"] is None


def test_bench_baseline_comparison(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    assert main(["bench", "--smoke", "--output", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["bench", "--smoke", "--baseline", str(out_path)]) == 0
    assert "speedup" in capsys.readouterr().out

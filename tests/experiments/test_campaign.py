"""Campaign executor tests: deterministic merge, parallel == serial,
failure isolation, manifest, callbacks."""

import json

import pytest

from repro.experiments import registry
from repro.experiments.campaign import CampaignResult, run_campaign

FAST_CHEAP = ["fig2", "fig9", "table1", "table5"]  # sub-second runners


def _bare(selection, **kw):
    """run_campaign without touching the filesystem."""
    kw.setdefault("results_dir", None)
    kw.setdefault("cache", False)
    return run_campaign(selection, **kw)


def _boom():
    raise RuntimeError("synthetic campaign failure")


def test_serial_campaign_matches_direct_runner_output():
    from repro.experiments.report import artifact_dict

    result = _bare(["fig2"])
    assert isinstance(result, CampaignResult)
    assert result.ok and result.jobs == 1
    (cell,) = result.cells
    exp = registry.get_experiment("fig2")
    artifact = exp.runner()
    assert cell.artifact == json.loads(
        json.dumps(artifact_dict(exp, artifact))
    )
    assert cell.text == artifact.render()
    assert cell.worker > 0 and not cell.cached


def test_parallel_campaign_is_byte_identical_to_serial():
    serial = _bare(FAST_CHEAP, jobs=1)
    parallel = _bare(FAST_CHEAP, jobs=4)
    assert [c.experiment_id for c in parallel.cells] == FAST_CHEAP
    for s_cell, p_cell in zip(serial.cells, parallel.cells):
        assert json.dumps(s_cell.artifact, sort_keys=True) == json.dumps(
            p_cell.artifact, sort_keys=True
        )
        assert s_cell.text == p_cell.text


def test_parallel_vs_serial_artifact_files_byte_equal(tmp_path):
    """The acceptance invariant over two sub-second cells and a
    multi-second one, down to the exported artifact files' bytes."""
    selection = ["fig2", "table1", "table2"]
    ser_dir = tmp_path / "ser"
    par_dir = tmp_path / "par"
    ser = run_campaign(selection, jobs=1, cache=False,
                       results_dir=str(ser_dir))
    par = run_campaign(selection, jobs=4, cache=False,
                       results_dir=str(par_dir))
    assert ser.ok and par.ok
    for exp_id in selection:
        for suffix in (".json", ".txt"):
            assert (ser_dir / f"{exp_id}{suffix}").read_bytes() == (
                par_dir / f"{exp_id}{suffix}"
            ).read_bytes()


def test_failures_are_isolated_and_reported(monkeypatch):
    broken = registry.Experiment("broken", "Fig. X", "always fails", _boom)
    monkeypatch.setitem(registry.EXPERIMENTS, "broken", broken)
    result = _bare(["broken", "fig2"])
    assert not result.ok
    assert result.failed == ("broken",)
    assert "synthetic campaign failure" in result.cell("broken").error
    assert result.cell("fig2").ok  # the healthy cell still ran


def test_selection_accepts_experiment_objects_and_tokens():
    by_token = _bare(["fig2"])
    by_obj = _bare([registry.get_experiment("fig2")])
    assert by_token.cells[0].artifact == by_obj.cells[0].artifact
    with pytest.raises(ValueError, match="unknown experiment"):
        _bare(["not-an-experiment"])
    with pytest.raises(ValueError, match="jobs"):
        _bare(["fig2"], jobs=0)


def test_empty_selection_yields_empty_result():
    result = _bare([])
    assert result.cells == () and result.ok


def test_callbacks_fire_in_order_for_serial_runs():
    started, finished = [], []
    result = run_campaign(
        ["fig2", "table1"], jobs=1, cache=False, results_dir=None,
        on_start=lambda exp, i, n: started.append((exp.id, i, n)),
        on_cell=lambda cell, done, n: finished.append((cell.experiment_id,
                                                       done, n)),
    )
    assert result.ok
    assert started == [("fig2", 0, 2), ("table1", 1, 2)]
    assert finished == [("fig2", 1, 2), ("table1", 2, 2)]


def test_manifest_records_cells_and_provenance(tmp_path):
    result = run_campaign(["fig2", "table1"], jobs=1, cache=True,
                          results_dir=str(tmp_path))
    assert result.manifest_path == str(tmp_path / "campaign.json")
    doc = json.loads((tmp_path / "campaign.json").read_text())
    assert doc["schema"] == 1
    assert doc["selection"] == ["fig2", "table1"]
    assert doc["code_fingerprint"] == result.code_fingerprint
    assert doc["finished"] >= doc["started"]
    for exp_id in ("fig2", "table1"):
        rec = doc["cells"][exp_id]
        assert rec["status"] == "ok"
        assert rec["cached"] is False
        assert rec["worker"] > 0
        assert rec["key"] == result.cell(exp_id).key
    # artifacts were exported alongside the manifest
    assert (tmp_path / "fig2.json").exists()
    assert (tmp_path / "table1.txt").exists()


def test_exported_artifacts_match_run_output_exports(tmp_path):
    """campaign --output and run --output must write identical bytes."""
    from repro.experiments.cli import main

    run_dir = tmp_path / "via_run"
    camp_dir = tmp_path / "via_campaign"
    assert main(["run", "fig2", "--output", str(run_dir)]) == 0
    run_campaign(["fig2"], jobs=1, cache=False, results_dir=str(camp_dir))
    for suffix in (".json", ".txt"):
        assert (run_dir / f"fig2{suffix}").read_bytes() == (
            camp_dir / f"fig2{suffix}"
        ).read_bytes()

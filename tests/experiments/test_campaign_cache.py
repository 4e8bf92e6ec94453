"""Content-addressed result cache tests: key derivation (hit on
identical config, miss on any config change), code-fingerprint
invalidation, warm runs executing zero runners, resuming an interrupted
campaign from the cache."""

import json

import pytest

from repro.experiments import campaign
from repro.experiments.campaign import (
    ResultCache,
    cell_key,
    code_fingerprint,
    experiment_config_digest,
    run_campaign,
)
from repro.experiments.registry import get_experiment


# ---------------------------------------------------------------------------
# key derivation
# ---------------------------------------------------------------------------


def test_cell_key_invalidates_when_code_fingerprint_changes():
    exp = get_experiment("fig2")
    digest = experiment_config_digest(exp)
    assert cell_key("fig2", digest, "aaaa") != cell_key("fig2", digest,
                                                        "bbbb")
    assert cell_key("fig2", digest, "aaaa") == cell_key("fig2", digest,
                                                        "aaaa")


def test_code_fingerprint_is_stable_and_tracks_sources(tmp_path):
    assert code_fingerprint() == code_fingerprint()
    src = tmp_path / "mod.py"
    src.write_text("x = 1\n")
    before = code_fingerprint(str(tmp_path))
    src.write_text("x = 2\n")
    assert code_fingerprint(str(tmp_path)) != before


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


def test_result_cache_round_trip_and_corruption_reads_as_miss(tmp_path):
    store = ResultCache(str(tmp_path / "cache"))
    assert store.get("00ff") is None
    store.put("00ff", {"artifact": {"v": 1}, "text": "hi"})
    entry = store.get("00ff")
    assert entry["artifact"] == {"v": 1} and entry["key"] == "00ff"
    assert store.keys() == ["00ff"]
    # truncated/corrupt file: a miss, never an error
    (tmp_path / "cache" / "00ff.json").write_text("{not json")
    assert store.get("00ff") is None
    # wrong-key content (e.g. renamed file) is also a miss
    store.put("aaaa", {"artifact": {}, "text": ""})
    (tmp_path / "cache" / "bbbb.json").write_text(
        (tmp_path / "cache" / "aaaa.json").read_text()
    )
    assert store.get("bbbb") is None
    assert store.clear() >= 1
    assert len(store) == 0


# ---------------------------------------------------------------------------
# end-to-end campaign caching
# ---------------------------------------------------------------------------


def test_warm_campaign_executes_zero_runners(tmp_path, monkeypatch):
    cold = run_campaign(["fig2", "table1"], jobs=1,
                        results_dir=str(tmp_path))
    assert cold.misses == 2 and cold.hits == 0

    def no_runner(_exp_id):
        raise AssertionError("warm campaign must not execute any runner")

    monkeypatch.setattr(campaign, "_execute_experiment", no_runner)
    warm = run_campaign(["fig2", "table1"], jobs=1,
                        results_dir=str(tmp_path))
    assert warm.hits == 2 and warm.misses == 0
    for cold_cell, warm_cell in zip(cold.cells, warm.cells):
        assert warm_cell.cached and warm_cell.worker == -1
        assert warm_cell.artifact == cold_cell.artifact
        assert warm_cell.text == cold_cell.text
        assert warm_cell.seconds == pytest.approx(cold_cell.seconds)


def test_code_fingerprint_change_invalidates_campaign_cache(tmp_path,
                                                            monkeypatch):
    run_campaign(["fig2"], jobs=1, results_dir=str(tmp_path))
    monkeypatch.setattr(campaign, "code_fingerprint",
                        lambda root=None: "deadbeefdeadbeef")
    rerun = run_campaign(["fig2"], jobs=1, results_dir=str(tmp_path))
    assert rerun.misses == 1 and rerun.hits == 0


def test_no_cache_mode_always_executes(tmp_path):
    first = run_campaign(["fig2"], jobs=1, cache=False,
                         results_dir=str(tmp_path))
    second = run_campaign(["fig2"], jobs=1, cache=False,
                          results_dir=str(tmp_path))
    assert first.misses == second.misses == 1
    assert not (tmp_path / "cache").exists()


def test_failed_cells_are_not_cached(tmp_path, monkeypatch):
    from repro.experiments import registry

    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        raise RuntimeError("flaky runner")

    broken = registry.Experiment("flaky", "Fig. X", "flaky", flaky)
    monkeypatch.setitem(registry.EXPERIMENTS, "flaky", broken)
    first = run_campaign(["flaky"], jobs=1, results_dir=str(tmp_path))
    second = run_campaign(["flaky"], jobs=1, results_dir=str(tmp_path))
    assert not first.ok and not second.ok
    assert calls["n"] == 2  # the failure was re-executed, not served


def test_interrupted_campaign_resumes_only_missing_cells(tmp_path,
                                                         monkeypatch):
    """Simulate a crash after the first cell: the second campaign only
    executes what is missing (the resumable-manifest contract)."""
    real_execute = campaign._execute_experiment
    executed: list[str] = []

    def crashy(exp_id):
        executed.append(exp_id)
        if exp_id == "table1":
            raise KeyboardInterrupt  # user hits ^C mid-campaign
        return real_execute(exp_id)

    monkeypatch.setattr(campaign, "_execute_experiment", crashy)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(["fig2", "table1"], jobs=1, results_dir=str(tmp_path))
    assert executed == ["fig2", "table1"]
    # the partial manifest still records fig2 as done
    doc = json.loads((tmp_path / "campaign.json").read_text())
    assert doc["cells"]["fig2"]["status"] == "ok"
    assert "table1" not in doc["cells"]

    def tracking(exp_id):
        executed.append(exp_id)
        return real_execute(exp_id)

    monkeypatch.setattr(campaign, "_execute_experiment", tracking)
    executed.clear()
    second = run_campaign(["fig2", "table1"], jobs=1,
                          results_dir=str(tmp_path))
    assert second.ok
    assert second.cell("fig2").cached  # served from the cache
    assert second.cell("table1").cached is False
    assert executed == ["table1"]  # only the missing cell executed


def test_experiment_digest_salted_by_crypto_plan():
    """The campaign-wide CryptoPlan is a cache-key input: serial and
    cryptmpi runs of one cell occupy distinct entries."""
    from repro.encmpi import CryptoPlan, parse_crypto_plan

    exp = get_experiment("fig2")
    base = experiment_config_digest(exp)
    assert base == experiment_config_digest(exp)  # stable

    piped = parse_crypto_plan("cryptmpi:chunk=256k,cores=3")
    assert experiment_config_digest(exp, piped) != base
    assert experiment_config_digest(exp, CryptoPlan()) != base
    assert (experiment_config_digest(exp, piped)
            != experiment_config_digest(exp, CryptoPlan()))
    # equal plans, however spelled, land on the same entry
    assert (experiment_config_digest(exp, piped)
            == experiment_config_digest(
                exp, parse_crypto_plan(piped.token())))

"""The ``bench`` harness (:mod:`repro.experiments.bench`) in smoke mode:
every registered bench runs, and the document and its rendering keep
the shape ``BENCH_core.json`` and ``make bench`` rely on."""

import pytest

from repro.experiments import bench as core_bench


@pytest.mark.parametrize("name", sorted(core_bench._BENCHES))
def test_core_bench_smoke(name):
    _description, fn = core_bench._BENCHES[name]
    result = fn("smoke")
    assert "seconds" in result
    if result["seconds"] is not None:
        assert result["seconds"] >= 0.0


def test_bench_document_shape():
    doc = core_bench.run_core_benches("smoke")
    assert doc["schema"] == core_bench.SCHEMA
    assert doc["mode"] == "smoke"
    assert set(doc["benches"]) == set(core_bench._BENCHES)
    # the fig6 experiment must be skipped in smoke mode, not silently run
    assert doc["benches"]["experiment_fig6"]["seconds"] is None


def test_bench_render_with_baseline():
    doc = core_bench.run_core_benches("smoke")
    text = core_bench.render(doc, baseline=doc)
    assert "speedup" in text
    assert "gcm_seal" in text


def test_bench_rejects_unknown_mode():
    with pytest.raises(ValueError):
        core_bench.run_core_benches("fastest")

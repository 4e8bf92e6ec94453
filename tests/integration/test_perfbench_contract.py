"""The hooks the repository benchmark (``perfbench/``) takes into ``src/``.

``perfbench/`` changes only together with the benchmark definition, so
a rename in ``src/`` that it calls or wraps would otherwise surface only
when the benchmark runs.  Its modules are loaded here read-only, under
private module names: ``sys.path`` is left alone and every wrapper the
span installation puts in is taken out again.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """``{"cells", "spans", "run"}`` -> the loaded perfbench module."""
    loaded = {}
    try:
        for name in ("cells", "spans", "run"):
            spec = importlib.util.spec_from_file_location(
                f"_perfbench_{name}", PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            # dataclasses look their defining module up by name
            sys.modules[spec.name] = module
            spec.loader.exec_module(module)
            loaded[name] = module
        yield loaded
    finally:
        for name in ("cells", "spans", "run"):
            sys.modules.pop(f"_perfbench_{name}", None)


def test_first_cell_of_every_kind_reproduces_the_pinned_digests(perfbench):
    cells = perfbench["cells"]
    pinned = json.loads((PERFBENCH / "digests.json").read_text())
    assert pinned["seed"] == cells.DEFAULT_SEED
    for name, workload in cells.WORKLOADS.items():
        first = workload.cells(cells.DEFAULT_SEED)[:len(workload.kinds)]
        for index, cell in enumerate(first):
            outcomes = cells.run_cell(cell)
            cells.check_cell(cell, outcomes)
            assert cells.digest(outcomes) == \
                pinned["workloads"][name][index], (name, index)


def test_span_targets_exist_and_unwrap_cleanly(perfbench):
    spans = perfbench["spans"]
    installation = spans.Installation(spans.Tracer())
    try:
        installation.install()
        missing = list(installation.missing)
    finally:
        installation.remove()
    assert missing == [
        "repro.simmpi.transport.Transport.isend",
        "repro.encmpi.pipeline.ChunkedSendRequest.wait",
        "repro.encmpi.pipeline.ChunkedRecvRequest.wait",
    ]
    assert spans.leftover_wrappers() == []


def test_traced_first_cells_load_and_bypass_the_declared_layers(perfbench):
    """What ``run.py --trace 1`` checks, on the first cell of every kind:
    each workload's ``loads`` counters are positive, its ``zeros``
    counters are zero, and no wrapper survives ``remove()``.  The cells
    run untraced first: a module first imported while the wrappers are
    installed would keep a wrapped function after ``remove()``."""
    cells, spans = perfbench["cells"], perfbench["spans"]
    for name, workload in cells.WORKLOADS.items():
        first = workload.cells(cells.DEFAULT_SEED)[:len(workload.kinds)]
        for cell in first:
            cells.run_cell(cell)
        tracer = spans.Tracer()
        installation = spans.Installation(tracer).install()
        try:
            for cell in first:
                cells.run_cell(cell)
        finally:
            installation.remove()
        assert spans.leftover_wrappers() == [], name
        counts = tracer.layer_counts()
        assert {key: counts[key] for key in workload.zeros} == \
            dict.fromkeys(workload.zeros, 0), name
        assert [key for key in workload.loads if counts[key] <= 0] == [], \
            name


def test_process_defaults_pin_runs(perfbench):
    perfbench["run"]._pin_process_defaults()

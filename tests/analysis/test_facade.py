"""api.lint_job, lint_callable anchoring, and the acceptance guarantee
that the repo's own workloads and examples lint clean."""

import pytest

from repro import api
from repro.analysis.linter import lint_callable, lint_paths

TAG_DATA = 9


def clean_workload(ctx):
    ctx.comm.send(b"x", 1 - ctx.rank, TAG_DATA)
    data, _ = ctx.comm.recv(1 - ctx.rank, TAG_DATA)
    return data


def dirty_workload(ctx):
    import random

    ctx.comm.send(b"x", 1, 42)
    return random.random()


def test_lint_job_clean_function():
    assert api.lint_job(clean_workload) == []


def test_lint_job_reports_rule_ids():
    found = api.lint_job(dirty_workload)
    assert sorted(f.rule for f in found) == ["DET002", "MPI002"]


def test_lint_job_anchors_lines_to_this_file():
    found = api.lint_job(dirty_workload)
    import inspect

    _, start = inspect.getsourcelines(dirty_workload)
    for f in found:
        assert f.path == f"<{__name__}.dirty_workload>"
        assert start < f.line < start + 10


def test_lint_callable_forces_rank_scope():
    # the parameter name doesn't matter for a job function
    def job(anything):
        anything.comm.send(b"x", 1, 42)

    assert [f.rule for f in lint_callable(job)] == ["MPI002"]


def test_lint_callable_without_source_raises_value_error():
    namespace: dict = {}
    exec("def ghost(ctx):\n    pass\n", namespace)
    with pytest.raises(ValueError, match="source is not retrievable"):
        lint_callable(namespace["ghost"])


# ------------------------------------------------------------ acceptance

def test_own_workloads_and_examples_lint_clean():
    # the ISSUE acceptance command:
    #   python -m repro.analysis lint src/repro/workloads examples
    found = lint_paths(["src/repro/workloads", "examples"])
    assert found == [], "\n".join(f.format() for f in found)


def test_entire_source_tree_lints_clean():
    found = lint_paths(["src/repro"])
    assert found == [], "\n".join(f.format() for f in found)

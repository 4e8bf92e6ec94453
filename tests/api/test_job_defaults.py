"""The one process-wide defaults mechanism: ``job_defaults``.

It holds exactly the sanitize flag, the crypto plan and the engine
options; a ``with`` block sets them and restores the enclosing value
on exit, and jobs on rank threads and in the campaign's fork-pool
workers started inside the block see them.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

import repro
from repro import api
from repro.defaults import JobDefaults, current_defaults, job_defaults
from repro.experiments import registry
from repro.experiments.report import Artifact
from repro.util.tables import Table

TAG_PING = 3


def pingpong(ctx):
    if ctx.rank == 0:
        ctx.comm.send(b"p" * 32, 1, tag=TAG_PING)
        ctx.comm.recv(1, TAG_PING)
    else:
        ctx.comm.recv(0, TAG_PING)
        ctx.comm.send(b"p" * 32, 0, tag=TAG_PING)
    return ctx.now


def test_exactly_three_fields_and_library_defaults():
    assert [f.name for f in dataclasses.fields(JobDefaults)] == \
        ["sanitize", "crypto", "engine"]
    assert current_defaults() == JobDefaults()
    assert api.job_defaults is job_defaults


def test_restored_when_the_block_raises():
    with pytest.raises(RuntimeError, match="boom"):
        with job_defaults(sanitize=True,
                          engine=api.EngineOptions(runtime="threads")):
            raise RuntimeError("boom")
    assert current_defaults() == JobDefaults()


def test_unset_keywords_keep_the_enclosing_value():
    threads = api.EngineOptions(runtime="threads")
    with job_defaults(engine=threads):
        with job_defaults(sanitize=True) as inner:
            assert inner == JobDefaults(sanitize=True, engine=threads)
        with job_defaults(sanitize=False) as inner:
            assert inner.sanitize is False and inner.engine is threads
    assert current_defaults() == JobDefaults()


def test_rank_threads_see_the_default():
    def plain_rank(ctx):  # plain functions run on OS threads
        return current_defaults().sanitize

    with job_defaults(sanitize=True):
        job = api.run_job(plain_rank, nranks=2)
    assert job.results == [True, True]


def _sanitize_probe():
    """A registry runner noting whether its job ran sanitized."""
    armed = api.run_job(pingpong, nranks=2).sanitizer is not None
    return Artifact("probe", "sanitize probe", Table("probe", []),
                    notes=[f"sanitizer armed: {armed}"])


def test_fork_workers_inherit_the_default(monkeypatch):
    """The campaign's fork pool is the one forked path: its workers run
    every cell inside the campaign's job_defaults block."""
    probes = ["probe-a", "probe-b"]
    for exp_id in probes:
        monkeypatch.setitem(registry.EXPERIMENTS, exp_id, registry.Experiment(
            exp_id, "-", "sanitize probe", _sanitize_probe))
    result = api.run_campaign(probes, jobs=2, cache=False, results_dir=None,
                              sanitize=True)
    assert result.ok
    assert all(cell.worker != os.getpid() for cell in result.cells)
    assert [cell.artifact["notes"] for cell in result.cells] == \
        [["sanitizer armed: True"]] * 2
    assert current_defaults().sanitize is False


def test_module_imports_no_simulator_code():
    probe = ("import sys, repro.defaults; "
             "print(sorted(m for m in sys.modules if m.startswith('repro')))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['repro', 'repro.defaults']"

"""Golden-path tests for the repro.api facade.

The facade must be a zero-cost veneer: run_job with/without a
SecurityConfig produces exactly the virtual timings and results of the
direct simmpi/encmpi invocation it replaces.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro import api
from repro.encmpi import EncryptedComm, SecurityConfig
from repro.models.cpu import ClusterSpec
from repro.simmpi import run_program

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)
MESSAGE = b"\xa5" * 4096


def _plain_workload(ctx):
    if ctx.rank == 0:
        ctx.comm.send(MESSAGE, 1, tag=7)
        return ctx.now
    data, _status = ctx.comm.recv(0, 7)
    assert data == MESSAGE
    return ctx.now


def test_run_job_plain_matches_run_program():
    direct = run_program(2, _plain_workload, network="ethernet", cluster=CLUSTER)
    via_api = api.run_job(
        _plain_workload, nranks=2, network="ethernet", cluster=CLUSTER
    )
    assert via_api.results == direct.results
    assert via_api.duration == direct.duration
    assert via_api.spans == direct.spans
    assert via_api.security is None
    assert via_api.network == "ethernet"


def test_run_job_encrypted_matches_direct_encmpi():
    sec = SecurityConfig(library="boringssl")

    def direct_program(ctx):
        enc = EncryptedComm(ctx, sec)
        if ctx.rank == 0:
            enc.send(MESSAGE, 1, tag=3)
            return ctx.now
        data, _status = enc.recv(0, 3)
        assert data == MESSAGE
        return ctx.now

    def facade_workload(ctx):
        assert ctx.enc is not None, "run_job(security=...) must populate ctx.enc"
        if ctx.rank == 0:
            ctx.enc.send(MESSAGE, 1, tag=3)
            return ctx.now
        data, _status = ctx.enc.recv(0, 3)
        assert data == MESSAGE
        return ctx.now

    direct = run_program(2, direct_program, network="ethernet", cluster=CLUSTER)
    via_api = api.run_job(
        facade_workload, nranks=2, security=sec, network="ethernet", cluster=CLUSTER
    )
    assert via_api.results == direct.results
    assert via_api.duration == direct.duration
    assert via_api.security is sec


def test_run_job_without_security_leaves_enc_none():
    def workload(ctx):
        return ctx.enc

    res = api.run_job(workload, nranks=2, cluster=CLUSTER)
    assert res.results == [None, None]


def test_run_job_arguments_are_keyword_only():
    with pytest.raises(TypeError):
        api.run_job(_plain_workload, 2)  # nranks positionally


def test_sweep_grid_order_and_labels():
    sec = SecurityConfig(library="libsodium")
    points = api.sweep(
        lambda ctx: ctx.now,
        nranks=2,
        networks=("ethernet", "infiniband"),
        securities=(None, sec),
        cluster=CLUSTER,
    )
    assert [p.label for p in points] == [
        "ethernet/baseline",
        "ethernet/libsodium",
        "infiniband/baseline",
        "infiniband/libsodium",
    ]
    # Each cell is a real JobResult from an independent run.
    assert all(p.result.duration >= 0.0 for p in points)
    # An encrypted run on the same fabric takes at least as long as the
    # baseline (crypto time is charged to the ranks).
    assert points[1].result.duration >= points[0].result.duration


def test_get_experiment_reexport():
    exp = api.get_experiment("fig2")
    assert exp.paper_ref == "Fig. 2"
    assert any(e.id == "fig6" for e in api.list_experiments())
    with pytest.raises(ValueError):
        api.get_experiment("nope")


def _modules_after_api_import(condition: str) -> str:
    """Sorted names of the modules matching *condition* (a Python
    expression over ``m``) that a fresh ``import repro.api`` loads."""
    probe = ("import sys, repro.api; print(sorted(m for m in sys.modules "
             f"if {condition}))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.strip()


def test_api_import_leaves_the_campaign_executor_unloaded():
    """run_campaign forwards lazily: importing the facade loads neither
    the executor nor its process-pool machinery."""
    assert _modules_after_api_import(
        "m in ('repro.experiments.campaign', 'multiprocessing', "
        "'concurrent.futures')") == "[]"


def test_api_import_leaves_the_experiment_registry_unloaded():
    """No job needs the registry (which imports every experiment), the
    stats module or the predictor: importing the facade loads none of
    them, and the names it exports from them resolve on first use."""
    probe = (
        "import sys, repro.api as api; "
        "lazy = ('repro.experiments.registry', 'repro.experiments.stats', "
        "'repro.models.predict'); "
        "print([m for m in lazy if m in sys.modules]); "
        "print(api.get_experiment('fig6').id); "
        "from repro.api import StatsSpec, predict; "
        "print(StatsSpec.__module__, predict.__module__)")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "[]", "fig6", "repro.experiments.stats repro.models.predict"]


def test_api_import_leaves_numpy_unloaded():
    """The package imports no numpy: it is a test-only dependency."""
    assert _modules_after_api_import("m.split('.')[0] == 'numpy'") == "[]"


@pytest.mark.parametrize("security", [None, SecurityConfig()])
def test_coroutine_runtime_error_names_the_workload(security):
    # with security=, run_job wraps the workload to set ctx.enc; the
    # wrapper must still report the workload's own name
    def my_blocking_job(ctx):
        return ctx.rank

    with pytest.raises(TypeError, match="'my_blocking_job' is a plain"):
        api.run_job(my_blocking_job, nranks=2, cluster=CLUSTER,
                    security=security, engine="coroutines")

"""Differential runtime suite: threads vs coroutines, byte for byte.

The coroutine rank runtime is only admissible because it is
*observationally identical* to the thread runtime: same virtual times,
same event streams, same artifacts.  This suite pins that equivalence
on the golden workloads, the cryptmpi chunk pipeline (helper-core
schedule and chunk retries included), the OSU collective workload and
cheap experiment cells, plus the EngineOptions enforcement edges
(strict-coroutines rejection of plain rank functions and the max_ranks
ceiling).
"""

import pytest

import repro.api as api
from repro.crypto.aead import NONCE_SIZE
from repro.des.options import EngineOptions, set_default_engine_options
from repro.encmpi.pipeline import HEADER_SIZE
from repro.experiments import goldens
from repro.models.cpu import parse_cluster_spec
from repro.simmpi.world import run_program
from repro.workloads import osu_collectives

CLUSTER = parse_cluster_spec("2x4")


@pytest.fixture(params=["threads", "coroutines"])
def runtime(request):
    """Run the test body once per runtime via the process-wide default."""
    prev = set_default_engine_options(EngineOptions(runtime=request.param))
    try:
        yield request.param
    finally:
        set_default_engine_options(prev)


def _force(runtime_name: str):
    return EngineOptions(runtime=runtime_name)


# ------------------------------------------------------------- golden runs

@pytest.mark.parametrize("name", sorted(goldens.GOLDEN_RUNS))
def test_golden_digests_identical_across_runtimes(name):
    """The strongest parity check: full structured event streams."""
    prev = set_default_engine_options(_force("threads"))
    try:
        threads = goldens.run_golden(name)
    finally:
        set_default_engine_options(prev)
    prev = set_default_engine_options(_force("coroutines"))
    try:
        coros = goldens.run_golden(name)
    finally:
        set_default_engine_options(prev)
    assert threads.canonical_lines() == coros.canonical_lines()
    assert threads.digest() == coros.digest()


# ------------------------------------------------------------ cheap cells

def _pingpong(ctx):
    if ctx.rank == 0:
        ctx.comm.send(b"x" * 512, 1, tag=1)
        ctx.comm.recv(1, 1)
    else:
        ctx.comm.recv(0, 1)
        ctx.comm.send(b"y" * 512, 0, tag=1)
    return ctx.now


def _co_pingpong(ctx):
    if ctx.rank == 0:
        yield from ctx.comm.co_send(b"x" * 512, 1, tag=1)
        yield from ctx.comm.co_recv(1, 1)
    else:
        yield from ctx.comm.co_recv(0, 1)
        yield from ctx.comm.co_send(b"y" * 512, 0, tag=1)
    return ctx.now


def test_generator_workload_identical_on_both_runtimes():
    a = run_program(2, _co_pingpong, cluster=CLUSTER, engine=_force("threads"))
    b = run_program(2, _co_pingpong, cluster=CLUSTER,
                    engine=_force("coroutines"))
    assert a.results == b.results
    assert a.duration == b.duration
    assert a.spans == b.spans


def test_generator_and_plain_spellings_agree():
    """The blocking spelling is derived from the generator one —
    run_blocking interprets the same generators — so a plain-function
    rank on threads must land on the same virtual times."""
    plain = run_program(2, _pingpong, cluster=CLUSTER,
                        engine=_force("threads"))
    gen = run_program(2, _co_pingpong, cluster=CLUSTER,
                      engine=_force("coroutines"))
    assert plain.results == gen.results
    assert plain.duration == gen.duration


def test_encrypted_job_identical_on_both_runtimes(runtime):
    result = api.run_job(
        _co_enc_exchange, nranks=2,
        security=api.SecurityConfig(library="boringssl"),
        options=api.RunOptions(cluster=CLUSTER),
    )
    # virtual time must not depend on the runtime: compare against the
    # values the other runtime parameter of this fixture produces
    _ENC_DURATIONS[runtime] = result.duration
    if len(_ENC_DURATIONS) == 2:
        assert _ENC_DURATIONS["threads"] == _ENC_DURATIONS["coroutines"]


_ENC_DURATIONS: dict[str, float] = {}


def _co_enc_exchange(ctx):
    if ctx.rank == 0:
        yield from ctx.enc.co_send(b"s" * 2048, 1, tag=3)
    else:
        yield from ctx.enc.co_recv(0, 3)
    yield from ctx.comm.co_barrier()
    return ctx.now


# -------------------------------------------------------- enforcement edges

def test_strict_coroutines_rejects_plain_rank_functions():
    with pytest.raises(TypeError, match="_pingpong"):
        run_program(2, _pingpong, cluster=CLUSTER,
                    engine=_force("coroutines"))


def test_max_ranks_ceiling_is_enforced():
    with pytest.raises(ValueError, match="max_ranks"):
        run_program(
            4, _co_pingpong, cluster=CLUSTER,
            engine=EngineOptions(runtime="coroutines", max_ranks=2),
        )


def test_auto_runtime_picks_by_program_kind():
    # generator program on auto: must run (coroutines), same answer
    auto = run_program(2, _co_pingpong, cluster=CLUSTER)
    threads = run_program(2, _co_pingpong, cluster=CLUSTER,
                          engine=_force("threads"))
    assert auto.duration == threads.duration


# ------------------------------------------------ cryptmpi chunk pipeline

CRYPTMPI = api.CryptoPlan(mode="cryptmpi", chunk_bytes=1024, bytework="real")
WINDOW = 4
MSG_BYTES = 3 * 1024 + 77  # four chunks, the last one short
TAG_WINDOW, TAG_ECHO = 5, 6


def _co_cryptmpi_exchange(ctx):
    """A window of multi-chunk isends on one channel, then the whole
    window echoed back as one larger chunked message."""
    enc = ctx.enc
    payloads = [bytes([i + 1]) * MSG_BYTES for i in range(WINDOW)]
    if ctx.rank == 0:
        reqs = []
        for p in payloads:
            reqs.append((yield from enc.co_isend(p, 1, TAG_WINDOW)))
        yield from enc.co_waitall(reqs)
        echo, _status = yield from enc.co_recv(1, TAG_ECHO)
        return echo == b"".join(payloads), ctx.now
    got = yield from enc.co_waitall(
        [enc.irecv(0, TAG_WINDOW) for _ in range(WINDOW)])
    yield from enc.co_send(b"".join(got), 0, TAG_ECHO)
    return got == payloads, ctx.now


def _run_cryptmpi(runtime_name: str):
    # corrupt a ciphertext bit (past the chunk header and nonce), so
    # damaged chunks fail their tag check and take the NACK + re-post
    # retry path of the pipeline
    faults = api.FaultPlan(corrupt=0.2, seed=13,
                           corrupt_bit=8 * (HEADER_SIZE + NONCE_SIZE) + 3)
    return api.run_job(
        _co_cryptmpi_exchange, nranks=2,
        security=api.SecurityConfig(library="boringssl", crypto=CRYPTMPI),
        options=api.RunOptions(
            cluster=parse_cluster_spec("2x8"), trace="events",
            faults=faults,
            resilience=api.ResiliencePolicy(max_retries=8, timeout=1e-3),
        ),
        engine=_force(runtime_name),
    )


def test_cryptmpi_pipeline_identical_on_both_runtimes():
    threads = _run_cryptmpi("threads")
    coros = _run_cryptmpi("coroutines")
    assert [ok for ok, _t in coros.results] == [True, True]
    assert coros.resilience.nacks > 0, "no chunk took the retry path"
    busy = coros.trace.events_in("cpu", "core_busy")
    assert {e.data["work"] for e in busy} == {"seal", "open"}
    assert threads.duration == coros.duration
    assert threads.results == coros.results
    assert threads.resilience == coros.resilience
    assert threads.trace.canonical_lines() == coros.trace.canonical_lines()
    assert threads.trace.digest() == coros.trace.digest()


@pytest.mark.parametrize("op", osu_collectives.SUPPORTED_OPS)
def test_collective_latency_identical_on_both_runtimes(op, monkeypatch):
    """The OSU collective workload at 8 ranks, traced through its own
    run_program call."""
    jobs = []

    def traced_run_program(*args, **kwargs):
        jobs.append(run_program(*args, trace="events", **kwargs))
        return jobs[-1]

    monkeypatch.setattr(osu_collectives, "run_program", traced_run_program)
    latency = {}
    for name in ("threads", "coroutines"):
        prev = set_default_engine_options(_force(name))
        try:
            latency[name] = osu_collectives.collective_latency(
                op, 512, nranks=8, cluster=CLUSTER, library="boringssl",
                iters=1)
        finally:
            set_default_engine_options(prev)
    threads, coros = jobs
    assert latency["threads"] == latency["coroutines"] > 0
    assert threads.duration == coros.duration
    assert threads.results == coros.results
    assert threads.trace.digest() == coros.trace.digest()

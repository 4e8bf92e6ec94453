"""The runtime sanitizer: deadlock diagnosis, leak tracking, nonce
reuse, and the guarantee that sanitizing never changes results.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api
from repro.analysis.sanitize import DeadlockDiagnosis, SanitizerError
from repro.crypto.errors import NonceReuseError
from repro.crypto.nonces import make_nonce_source
from repro.defaults import current_defaults, job_defaults
from repro.des.engine import DeadlockError
from repro.des.process import ProcessFailed

TAG_PING = 1
TAG_PONG = 2
#: generous wall-clock bound: a hung deadlock test must fail, not hang CI
TIMEOUT = 60.0


def run_with_timeout(fn, *args, **kwargs):
    """Run a job in a worker thread; a deadlock must *terminate* with a
    diagnosis, never hang the suite."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args, **kwargs).result(timeout=TIMEOUT)


def pingpong(ctx):
    peer = 1 - ctx.rank
    if ctx.rank == 0:
        ctx.comm.send(b"p" * 256, peer, TAG_PING)
        data, _ = ctx.comm.recv(peer, TAG_PONG)
    else:
        data, _ = ctx.comm.recv(peer, TAG_PING)
        ctx.comm.send(b"q" * 256, peer, TAG_PONG)
    return len(data)


# ------------------------------------------------------------- clean run

def test_clean_job_reports_ok():
    result = api.run_job(pingpong, nranks=2, sanitize=True)
    assert result.results == [256, 256]
    report = result.sanitizer
    assert report is not None and report.ok
    assert report.ops_tracked == 4
    assert not report.leaked and not report.unmatched


def test_sanitize_off_by_default():
    assert api.run_job(pingpong, nranks=2).sanitizer is None


def test_sanitize_never_changes_timing_or_results():
    plain = api.run_job(pingpong, nranks=2)
    sanitized = api.run_job(pingpong, nranks=2, sanitize=True)
    assert sanitized.duration == plain.duration
    assert sanitized.results == plain.results
    assert sanitized.spans == plain.spans


def co_spaced_sends(ctx):
    """Rank 1 waits on receives posted before their messages were sent,
    so every wait parks and an engine step marks it."""
    if ctx.rank == 0:
        for _ in range(4):
            yield from ctx.co_compute(1e-5)
            yield from ctx.comm.co_send(b"s" * 64, 1, TAG_PING)
        return None
    reqs = [ctx.comm.irecv(0, TAG_PING) for _ in range(4)]
    for req in reqs:
        assert not req.completed
        yield from req.co_wait()
    return ctx.now


def test_parked_receives_are_marked_waited_without_moving_time():
    plain = api.run_job(co_spaced_sends, nranks=2)
    sanitized = api.run_job(co_spaced_sends, nranks=2, sanitize=True)
    report = sanitized.sanitizer
    assert report.ok and report.ops_tracked == 8
    assert not report.leaked and not report.unwaited
    assert sanitized.duration == plain.duration
    assert sanitized.results == plain.results


def test_encrypted_job_counts_nonces():
    def enc_pingpong(ctx):
        peer = 1 - ctx.rank
        if ctx.rank == 0:
            ctx.enc.send(b"p" * 256, peer, TAG_PING)
            data, _ = ctx.enc.recv(peer, TAG_PONG)
        else:
            data, _ = ctx.enc.recv(peer, TAG_PING)
            ctx.enc.send(b"q" * 256, peer, TAG_PONG)
        return len(data)

    result = api.run_job(enc_pingpong, nranks=2,
                         security=api.SecurityConfig(), sanitize=True)
    assert result.results == [256, 256]
    assert result.sanitizer.nonces_checked == 2


# -------------------------------------------------------------- deadlock

def head_to_head_recv(ctx):
    peer = 1 - ctx.rank
    data, _ = ctx.comm.recv(peer, TAG_PING)
    ctx.comm.send(b"x", peer, TAG_PING)
    return data


def test_deadlock_diagnosis_names_both_ranks():
    with pytest.raises(DeadlockDiagnosis) as exc_info:
        run_with_timeout(
            api.run_job, head_to_head_recv, nranks=2, sanitize=True)
    diag = exc_info.value
    assert sorted(diag.cycle) == [0, 1]
    message = str(diag)
    assert "wait-for cycle" in message
    assert "rank 0 waiting on recv(from rank 1" in message
    assert "rank 1 waiting on recv(from rank 0" in message


def test_deadlock_diagnosis_is_a_deadlock_error():
    # existing handlers that catch DeadlockError keep working
    with pytest.raises(DeadlockError):
        run_with_timeout(
            api.run_job, head_to_head_recv, nranks=2, sanitize=True)


def test_unsanitized_deadlock_still_raises_plain_error():
    with pytest.raises(DeadlockError) as exc_info:
        run_with_timeout(api.run_job, head_to_head_recv, nranks=2)
    assert not isinstance(exc_info.value, DeadlockDiagnosis)


def test_rendezvous_send_send_deadlock_diagnosed():
    def head_to_head_send(ctx):
        peer = 1 - ctx.rank
        ctx.comm.send(b"s" * (1 << 20), peer, TAG_PING)
        data, _ = ctx.comm.recv(peer, TAG_PING)
        return data

    with pytest.raises(DeadlockDiagnosis) as exc_info:
        run_with_timeout(
            api.run_job, head_to_head_send, nranks=2, sanitize=True)
    message = str(exc_info.value)
    assert "send(to rank" in message and "1048576B" in message


# ----------------------------------------------------------------- leaks

def leaky_sender(ctx):
    if ctx.rank == 0:
        # rendezvous-sized isend, never waited, never received
        ctx.comm.isend(b"L" * (1 << 20), 1, TAG_PING)


def test_leaked_send_fails_the_job_with_per_rank_report():
    with pytest.raises(SanitizerError) as exc_info:
        api.run_job(leaky_sender, nranks=2, sanitize=True)
    report = exc_info.value.report
    assert not report.ok
    assert list(report.leaked) == [0]
    (desc,) = report.leaked[0]
    assert desc.startswith("send(to rank 1")
    assert "rank 0" in str(exc_info.value)


def test_unmatched_message_reported_on_receiver():
    def eager_leak(ctx):
        if ctx.rank == 0:
            # eager-sized: the send completes, the message sits
            # unmatched in rank 1's unexpected queue forever
            ctx.comm.send(b"e" * 64, 1, TAG_PING)

    with pytest.raises(SanitizerError) as exc_info:
        api.run_job(eager_leak, nranks=2, sanitize=True)
    report = exc_info.value.report
    assert not report.leaked
    assert list(report.unmatched) == [1]
    assert "tag=1" in report.unmatched[1][0]


def test_leak_free_job_passes():
    report = api.run_job(pingpong, nranks=2, sanitize=True).sanitizer
    assert report.ok


# ----------------------------------------------------------- nonce reuse

def test_rank_shared_counter_stream_raises():
    def shared_stream(ctx):
        # both ranks forced onto rank 0's counter prefix — the exact
        # §III-A violation CRY002 flags statically
        ctx.enc._nonces = make_nonce_source("counter", 0)
        peer = 1 - ctx.rank
        rreq = ctx.enc.irecv(peer, TAG_PING)
        sreq = ctx.enc.isend(b"m" * 64, peer, TAG_PING)
        rreq.wait()
        sreq.wait()

    with pytest.raises(ProcessFailed) as exc_info:
        api.run_job(shared_stream, nranks=2,
                    security=api.SecurityConfig(), sanitize=True)
    cause = exc_info.value.__cause__
    assert isinstance(cause, NonceReuseError)
    assert "rank 0" in str(cause) and "rank 1" in str(cause)


def test_distinct_streams_pass():
    def fine(ctx):
        peer = 1 - ctx.rank
        rreq = ctx.enc.irecv(peer, TAG_PING)
        sreq = ctx.enc.isend(b"m" * 64, peer, TAG_PING)
        rreq.wait()
        sreq.wait()

    report = api.run_job(fine, nranks=2, security=api.SecurityConfig(),
                         sanitize=True).sanitizer
    assert report.ok and report.nonces_checked == 2


# ------------------------------------------------- process-wide default

def test_default_sanitize_flag_round_trips():
    assert current_defaults().sanitize is False
    with job_defaults(sanitize=True) as defaults:
        assert defaults.sanitize is True
        assert current_defaults().sanitize is True
        # run_job(sanitize=None) defers to the default
        assert api.run_job(pingpong, nranks=2).sanitizer is not None
    assert current_defaults().sanitize is False


def test_explicit_false_overrides_default():
    with job_defaults(sanitize=True):
        assert api.run_job(pingpong, nranks=2,
                           sanitize=False).sanitizer is None


def test_campaign_sets_and_restores_default(monkeypatch):
    from repro.experiments import campaign as campaign_mod

    observed = []

    def fake_execute(exp_id):
        observed.append(current_defaults().sanitize)
        return {"ok": True, "artifact": {}, "text": "", "seconds": 0.0,
                "pid": 0}

    monkeypatch.setattr(campaign_mod, "_execute_experiment", fake_execute)
    exps = api.list_experiments()[:2]
    result = campaign_mod.run_campaign(
        exps, jobs=1, cache=False, results_dir=None, sanitize=True,
    )
    assert observed == [True, True]
    assert current_defaults().sanitize is False
    assert not result.failed


# ------------------------------------------------- runtime parity

def co_head_to_head_recv(ctx):
    """Generator spelling of the recv/recv deadlock: runs as a real
    coroutine under runtime='coroutines' and through run_blocking on
    threads — the diagnosis must not depend on which."""
    peer = 1 - ctx.rank
    data, _ = yield from ctx.comm.co_recv(peer, TAG_PING)
    yield from ctx.comm.co_send(b"x", peer, TAG_PING)
    return data


def _diagnose(engine: str) -> DeadlockDiagnosis:
    with pytest.raises(DeadlockDiagnosis) as exc_info:
        run_with_timeout(
            api.run_job, co_head_to_head_recv, nranks=2,
            sanitize=True, engine=engine)
    return exc_info.value


def test_deadlock_diagnosis_identical_across_runtimes():
    threads = _diagnose("threads")
    coroutines = _diagnose("coroutines")
    assert sorted(threads.cycle) == sorted(coroutines.cycle) == [0, 1]
    assert str(threads) == str(coroutines)
    assert "wait-for cycle" in str(coroutines)
    assert "rank 0 waiting on recv(from rank 1" in str(coroutines)

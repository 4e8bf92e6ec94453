"""Core performance benchmarks of the substrate itself.

The simulator is deterministic, so the *virtual* results never move —
what can regress is the wall-clock cost of producing them.  This module
times the hot paths the reproduction leans on (pure-Python AES-GCM and
ChaCha20-Poly1305, the event engine, process handoff, the simulated
transport, and end-to-end experiments) and writes the numbers to
``BENCH_core.json`` so a checked-in baseline travels with the code.

Two modes:

- ``full`` — the committed baseline: paper-scale payloads and event
  counts (64 KiB AEAD messages, 200k events, the fig6 experiment);
- ``smoke`` — seconds-not-minutes variant for ``make bench`` and CI;
  never meant to overwrite the committed baseline.

Run via ``python -m repro.experiments bench [--smoke] [--output PATH]
[--baseline PATH]``.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Any, Callable

#: schema 2 added the top-level ``runtime`` field (the
#: repro.des.process.RUNTIMES tuple the build supports) and the
#: coroutine twins of the engine benches
SCHEMA = 2

#: name -> (description, runner(mode) -> dict with at least "seconds")
_BENCHES: dict[str, tuple[str, Callable[[str], dict]]] = {}


def _bench(name: str, description: str):
    def register(fn: Callable[[str], dict]):
        _BENCHES[name] = (description, fn)
        return fn

    return register


def _timed(fn: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# --------------------------------------------------------------------------
# crypto hot path


def _aead_bench(backend: str, op: str, mode: str) -> dict:
    """Time one pure-Python seal or open: 64 KiB full, 4 KiB smoke."""
    from repro.crypto.aead import get_aead

    size, reps = (65536, 3) if mode == "full" else (4096, 2)
    # Fixed key and single-use nonce: this times one message, it never
    # encrypts a second message under the pair.
    aead = get_aead(bytes(range(32)), backend)  # lint-ok: CRY003
    payload = bytes((7 * i + 13) & 0xFF for i in range(size))
    nonce = bytes(12)  # lint-ok: CRY001
    framed = aead.seal(nonce, payload)  # also warms the per-key tables
    if op == "seal":
        seconds = min(_timed(lambda: aead.seal(nonce, payload)) for _ in range(reps))
    else:
        seconds = min(_timed(lambda: aead.open(nonce, framed)) for _ in range(reps))
    return {"seconds": seconds, "bytes": size, "reps": reps}


@_bench("gcm_seal",
        "pure-Python AES-GCM seal (byte-sliced AES-CTR batch + GHASH tables)")
def _bench_gcm_seal(mode: str) -> dict:
    return _aead_bench("pure", "seal", mode)


@_bench("gcm_open",
        "pure-Python AES-GCM open (tag verify + byte-sliced AES-CTR batch)")
def _bench_gcm_open(mode: str) -> dict:
    return _aead_bench("pure", "open", mode)


@_bench("chacha_seal",
        "pure-Python ChaCha20-Poly1305 seal (lane-parallel ChaCha20 + Poly1305)")
def _bench_chacha_seal(mode: str) -> dict:
    return _aead_bench("chacha", "seal", mode)


@_bench("chacha_open",
        "pure-Python ChaCha20-Poly1305 open (Poly1305 verify + lane-parallel ChaCha20)")
def _bench_chacha_open(mode: str) -> dict:
    return _aead_bench("chacha", "open", mode)


# --------------------------------------------------------------------------
# simulator hot paths


@_bench("des_events", "event engine schedule/dispatch chain")
def _bench_des_events(mode: str) -> dict:
    from repro.des.engine import Engine

    count = 200_000 if mode == "full" else 20_000

    def run() -> None:
        engine = Engine()
        remaining = [count]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0]:
                engine.schedule(1.0, tick)

        engine.schedule(0.0, tick)
        engine.run()

    return {"seconds": _timed(run), "events": count}


@_bench("des_events_coro", "coroutine ranks driving the engine (sleep chain)")
def _bench_des_events_coro(mode: str) -> dict:
    from repro.des.process import Scheduler, _Sleep

    count = 200_000 if mode == "full" else 20_000
    nprocs = 4
    per_rank = count // nprocs

    def run() -> None:
        sched = Scheduler(runtime="coroutines")

        def prog():
            for _ in range(per_rank):
                yield _Sleep(1e-6)

        for _ in range(nprocs):
            sched.spawn(prog)
        sched.run()

    return {"seconds": _timed(run), "events": per_rank * nprocs}


@_bench("process_handoff", "scheduler thread-handoff round trips")
def _bench_process_handoff(mode: str) -> dict:
    from repro.des.process import Scheduler

    sleeps = 5_000 if mode == "full" else 500
    nprocs = 4

    def run() -> None:
        sched = Scheduler()

        def prog() -> None:
            me = sched.current()
            for _ in range(sleeps):
                me.sleep(1e-6)

        for _ in range(nprocs):
            sched.spawn(prog)
        sched.run()

    return {"seconds": _timed(run), "handoffs": sleeps * nprocs}


@_bench("process_handoff_coro",
        "same wake count on generator coroutines (no OS threads)")
def _bench_process_handoff_coro(mode: str) -> dict:
    from repro.des.process import Scheduler, _Sleep

    sleeps = 5_000 if mode == "full" else 500
    nprocs = 4

    def run() -> None:
        sched = Scheduler(runtime="coroutines")

        def prog():
            for _ in range(sleeps):
                yield _Sleep(1e-6)

        for _ in range(nprocs):
            sched.spawn(prog)
        sched.run()

    return {"seconds": _timed(run), "handoffs": sleeps * nprocs}


@_bench("simmpi_messages", "simulated point-to-point message rate")
def _bench_simmpi_messages(mode: str) -> dict:
    from repro.models.cpu import TWO_NODE_CLUSTER
    from repro.simmpi import run_program

    n = 2_000 if mode == "full" else 200

    def prog(ctx) -> None:
        if ctx.rank == 0:
            for _ in range(n):
                ctx.comm.send(b"x" * 64, 1, tag=0)
        else:
            for _ in range(n):
                ctx.comm.recv(0, 0)

    return {
        "seconds": _timed(
            lambda: run_program(2, prog, cluster=TWO_NODE_CLUSTER)
        ),
        "messages": n,
    }


# --------------------------------------------------------------------------
# end-to-end experiments


@_bench("experiment_fig4", "fig4 end-to-end (multi-pair 1B)")
def _bench_experiment_fig4(_mode: str) -> dict:
    from repro.experiments.figures import fig4

    return {"seconds": _timed(fig4)}


@_bench("experiment_fig6", "fig6 end-to-end (multi-pair 2MB)")
def _bench_experiment_fig6(mode: str) -> dict:
    if mode != "full":
        return {"seconds": None, "skipped": "full mode only"}
    from repro.experiments.figures import fig6

    return {"seconds": _timed(fig6)}


@_bench("experiment_cryptmpi",
        "cryptmpi end-to-end (chunk pipeline on helper cores, modeled)")
def _bench_experiment_cryptmpi(_mode: str) -> dict:
    from repro.experiments.cryptmpi import cryptmpi

    return {"seconds": _timed(cryptmpi)}


@_bench("experiment_nas_cg",
        "NAS CG baseline + BoringSSL simulations (Table IV cell, cold memo)")
def _bench_experiment_nas_cg(mode: str) -> dict:
    from repro.models.cpu import ClusterSpec
    from repro.workloads.nas import common

    # full: the paper's 64 ranks on 8 nodes; smoke: 8 ranks on 2 nodes
    scale = {} if mode == "full" else {
        "nranks": 8, "cluster": ClusterSpec(nodes=2, cores_per_node=4)}
    common._comm_time_cache.clear()
    return {"seconds": _timed(
        lambda: common.run_nas("cg", library="boringssl", **scale))}


@_bench("campaign_warm_cache",
        "warm-cache campaign over fig2+table1 (zero runners executed)")
def _bench_campaign_warm_cache(_mode: str) -> dict:
    import tempfile

    from repro.experiments.campaign import run_campaign

    selection = ["fig2", "table1"]
    with tempfile.TemporaryDirectory() as tmp:
        run_campaign(selection, jobs=1, results_dir=tmp)  # cold fill
        seconds = _timed(lambda: run_campaign(selection, jobs=1, results_dir=tmp))
        warm = run_campaign(selection, jobs=1, results_dir=tmp)
    return {"seconds": seconds, "cells": len(selection), "hits": warm.hits}


# --------------------------------------------------------------------------
# tracing overhead


#: simulator benches whose hot paths carry the guarded trace-emit sites
TRACING_SENSITIVE = ("des_events", "des_events_coro", "process_handoff",
                     "process_handoff_coro", "simmpi_messages")


def check_tracing_overhead(
    baseline: dict, threshold: float = 0.02, mode: str = "full", reps: int = 3
) -> tuple[bool, str]:
    """Assert that *disabled* tracing stays within *threshold* of baseline.

    Tracing is off by default, so re-running the simulator benches today
    and comparing against the committed ``BENCH_core.json`` (recorded on
    this container) bounds the cost of the guarded emit sites on the hot
    paths.  Each bench runs *reps* times and the best time is compared —
    wall-clock noise is real, which is why this is an opt-in check
    (``make check-tracing-overhead``), not part of tier-1.
    """
    if baseline.get("mode") != mode:
        raise ValueError(
            f"baseline is {baseline.get('mode')!r}-mode; need {mode!r} "
            "(payload sizes differ between modes)"
        )
    lines = [f"tracing-overhead check (threshold {threshold * 100:.0f}%, best of {reps})"]
    ok = True
    for name in TRACING_SENSITIVE:
        base = baseline.get("benches", {}).get(name, {}).get("seconds")
        if base is None:
            lines.append(f"{name:18s} no baseline — skipped")
            continue
        _description, fn = _BENCHES[name]
        secs = min(fn(mode)["seconds"] for _ in range(reps))
        overhead = secs / base - 1.0
        verdict = "ok" if overhead <= threshold else "FAIL"
        if overhead > threshold:
            ok = False
        lines.append(
            f"{name:18s} {secs:8.4f}s vs {base:8.4f}s  "
            f"({overhead:+7.2%})  {verdict}"
        )
    lines.append("PASS" if ok else "FAIL: tracing hooks slowed a hot path")
    return ok, "\n".join(lines)


# --------------------------------------------------------------------------
# driver


def run_core_benches(mode: str = "full") -> dict:
    """Run every registered bench; returns the BENCH_core.json document."""
    if mode not in ("full", "smoke"):
        raise ValueError(f"unknown bench mode {mode!r}")
    benches: dict[str, dict] = {}
    for name, (description, fn) in _BENCHES.items():
        result = fn(mode)
        result["description"] = description
        benches[name] = result
    from repro.des.process import RUNTIMES

    return {
        "schema": SCHEMA,
        "mode": mode,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "runtime": list(RUNTIMES),
        "benches": benches,
    }


def render(doc: dict, baseline: dict | None = None) -> str:
    """Human-readable table; with *baseline*, adds a speedup column."""
    lines = [f"core benches ({doc['mode']} mode, python {doc['python']})"]
    if baseline is not None and baseline.get("mode") != doc["mode"]:
        lines.append(
            f"NOTE: baseline is {baseline.get('mode')}-mode — payloads differ, "
            "speedups are not comparable"
        )
    header = f"{'bench':18s} {'seconds':>10s}"
    if baseline is not None:
        header += f" {'baseline':>10s} {'speedup':>8s}"
    lines.append(header)
    for name, result in doc["benches"].items():
        secs = result.get("seconds")
        if secs is None:
            lines.append(f"{name:18s} {'skipped':>10s}")
            continue
        row = f"{name:18s} {secs:10.4f}"
        if baseline is not None:
            base = baseline.get("benches", {}).get(name, {}).get("seconds")
            if base is None:
                row += f" {'-':>10s} {'-':>8s}"
            else:
                row += f" {base:10.4f} {base / secs:7.2f}x"
        lines.append(row)
    return "\n".join(lines)


def load_baseline(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"baseline {path} has schema {doc.get('schema')!r}, expected {SCHEMA}"
        )
    return doc


def write_doc(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

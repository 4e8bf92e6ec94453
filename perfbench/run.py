"""The repository benchmark: closed-loop cells through the public API.

Run from the root of a checkout (the simulator is imported from
``src/``)::

    python3 perfbench/run.py --workload small_msgs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report          # every workload, both modes
    python3 perfbench/run.py --pin             # re-pin digests.json

One process runs a seeded list of cells one after another (see
``cells.py``); there is no worker pool.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; human-readable lines go to standard error.

``--trace 0`` reports the end-to-end metrics:

- ``cells_per_s``: cells completed per host second of the timed loop;
- ``cell_ms_p50`` / ``cell_ms_p90``: median and p90 host time per cell;
- ``setup_s``: interpreter start to ready (imports, cost-model memos and
  AEAD tables warmed, one warm-up cell per cell kind), the median of
  this process and :data:`SETUP_PROBES` fresh interpreters;
- ``peak_rss_mb``: peak resident memory of this process.

Host times are scaled to a reference machine speed with a fixed kernel
timed before every cell and between set-up steps (``speed.py``), so a
shared machine's speed shifts largely cancel out; the unscaled figures
are printed beside them.  Each cell's time includes collecting its
cyclic garbage (set-up's objects are frozen out of the collector).

``error_rate`` (failed / attempted cells) is printed on standard error
and carried by the ``attempted`` / ``failed`` fields.

``--trace 1`` runs a fixed number of cells untraced, then the same cells
with every layer wrapped (``spans.py``), and reports per-layer self
time and counts plus ``run.other_s`` and ``run.trace_overhead``.  It
also checks that the traced and untraced virtual outcomes are
identical, that no wrapper survives, that self + handoff + other time
adds up to the traced wall time, that per-layer counts repeat exactly
in a second traced pass, and that each workload's bypassed layers
count exactly zero.

Every run starts a fresh interpreter with ``PYTHONHASHSEED=0`` and pins
the simulator's process-wide defaults (crypto plan, engine options,
sanitizer) explicitly; it never touches the ``results/cache`` campaign
cache.  ``BENCH_core.json`` stays the micro-benchmark ledger; this is
not it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
#: span logs of traced runs (ignored by git)
OUT = ROOT / ".perfbench_out"

#: fresh interpreters that repeat the set-up, besides this process
SETUP_PROBES = 2
#: speed-kernel runs that close a set-up (besides one per step)
GAUGE_RUNS = 5
#: cells of the traced pass that the repeat check runs a second time
REPEAT_CELLS = 3
_T0_ENV = "PERFBENCH_T0"


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _ensure_fresh_interpreter() -> None:
    """Re-exec under the fixed hash seed (keeps the start timestamp)."""
    if os.environ.get("PYTHONHASHSEED") == "0" and _T0_ENV in os.environ:
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.setdefault(_T0_ENV, repr(time.time()))
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _pin_process_defaults() -> None:
    """Set every process-wide simulator default explicitly, so a CLI
    default or a changed library default cannot alter a workload."""
    from repro.des import options
    from repro.encmpi import plan
    from repro.analysis import sanitize

    pins = (
        (options, "set_default_engine_options",
         options.EngineOptions(runtime="auto", max_ranks=4096,
                               handoff_check=False)),
        (plan, "set_default_crypto_plan", None),
        (sanitize, "set_default_sanitize", False),
    )
    for module, setter, value in pins:
        fn = getattr(module, setter, None)
        if fn is not None:
            fn(value)


def _warm_caches() -> None:
    """Cost-model memos and AEAD key tables, built once per process."""
    from repro.crypto.aead import get_aead
    from repro.crypto.keys import HARDCODED_KEY_256
    from repro.models.cryptolib import profile_for_network
    from repro.models.network import get_network

    import cells

    for fabric in cells.FABRICS:
        net = get_network(fabric)
        for lib in cells.LIBRARIES:
            profile_for_network(lib, net.name, 256)
    for backend in cells.AEAD_BACKENDS:
        get_aead(HARDCODED_KEY_256, backend)


def setup(workload, seed: int, gauge):
    """Imports, warm-ups, and one warm-up cell per cell kind, with the
    speed kernel sampled between the steps (into *gauge*)."""
    import cells

    _pin_process_defaults()
    _warm_caches()
    cell_list = workload.cells(seed)
    for k in range(len(workload.kinds)):
        gauge.sample()
        cells.run_cell(cell_list[k])
    gauge.sample(GAUGE_RUNS)
    # what set-up built stays; the collector then scans only what cells make
    gc.collect()
    gc.freeze()
    return cell_list


def _setup_elapsed() -> float:
    return time.time() - float(os.environ[_T0_ENV])


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of one fresh interpreter (a child process), measured
    and scaled to the speed kernel's reference speed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env[_T0_ENV] = repr(time.time())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        _fail(f"set-up probe failed:\n{proc.stderr}")
    raw, scaled = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


class Ledger:
    """Attempted / failed cells, failure causes, and digest checks."""

    def __init__(self, workload: str, seed: int) -> None:
        import cells

        self.attempted = 0
        self.failed = 0
        self.causes: dict[str, int] = {}
        self.pinned = None
        if seed == cells.DEFAULT_SEED and DIGESTS.exists():
            pins = json.loads(DIGESTS.read_text())
            if pins.get("seed") == seed:
                self.pinned = pins["workloads"].get(workload)

    def run(self, cell) -> tuple[float, str | None]:
        """Run and check one cell; returns (host seconds, digest or None).

        The host time includes collecting the cell's cyclic garbage, so
        no cell pays for its predecessor's and peak memory does not
        depend on when the collector happened to run.
        """
        import cells

        self.attempted += 1
        t = time.perf_counter()
        try:
            outcomes = cells.run_cell(cell)
        except Exception as exc:  # noqa: BLE001 - a failed cell is counted
            gc.collect()
            dt = time.perf_counter() - t
            self._failure(cell, exc)
            return dt, None
        gc.collect()
        dt = time.perf_counter() - t
        try:
            cells.check_cell(cell, outcomes)
            d = cells.digest(outcomes)
            if self.pinned is not None and self.pinned[cell.index] != d:
                raise cells.OracleError(
                    f"digest {d} != pinned {self.pinned[cell.index]}")
        except cells.OracleError as exc:
            self._failure(cell, exc)
            return dt, None
        return dt, d

    def _failure(self, cell, exc: BaseException) -> None:
        self.failed += 1
        root = exc
        while root.__cause__ is not None:
            root = root.__cause__
        cause = f"{type(root).__name__}: {str(root).splitlines()[0][:160]}"
        self.causes[cause] = self.causes.get(cause, 0) + 1
        print(f"perfbench: cell {cell.index} ({cell.kind}) failed: {cause}",
              file=sys.stderr)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def timed_loop(cell_list, ledger: Ledger, seconds: float, kernel):
    """Run cells in order (cycling) until *seconds* of host time pass,
    timing the speed kernel before each; returns (cell s, kernel s)."""
    cell_s, kernel_s = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        kernel_s.append(kernel.time())
        cell_s.append(ledger.run(cell_list[i % len(cell_list)])[0])
        i += 1
    return cell_s, kernel_s


def _time_metrics(cell_s: list[float], setups: list[float]) -> dict:
    """cells/s, p50 and p90 per cell, and set-up, from seconds."""
    ms = [t * 1e3 for t in cell_s]
    return {
        "cells_per_s": (len(cell_s) / sum(cell_s), "cells/s"),
        "cell_ms_p50": (statistics.median(ms), "ms"),
        "cell_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def measure(name: str, seed: int, seconds: float, gauge) -> dict:
    import cells
    import speed

    workload = cells.WORKLOADS[name]
    cell_list = setup(workload, seed, gauge)
    raw_setups, setups = map(list, zip(
        gauge.scale(_setup_elapsed()),
        *(_probe_setup(name, seed) for _ in range(SETUP_PROBES))))
    ledger = Ledger(name, seed)
    cell_s, kernel_s = timed_loop(cell_list, ledger, seconds, gauge.kernel)
    scaled_s = speed.scale_series(cell_s, kernel_s)
    raw = _time_metrics(cell_s, raw_setups)
    metrics = _time_metrics(scaled_s, setups)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    p90_s = metrics["cell_ms_p90"][0] / 1e3
    beyond = sum(1 for v in scaled_s if v > p90_s)
    samples = {"cells_per_s": len(cell_s), "cell_ms_p50": len(cell_s),
               "cell_ms_p90": len(cell_s), "setup_s": len(setups),
               "peak_rss_mb": 1}
    print(f"{name:14s} speed kernel {statistics.median(kernel_s) * 1e3:.3f} ms "
          f"median (reported times are at {speed.REFERENCE_MS} ms)",
          file=sys.stderr)
    for key, (value, unit) in metrics.items():
        unscaled = f"(unscaled {raw[key][0]:.4f})" if key in raw else ""
        print(f"{name:14s} {key:12s} {value:12.4f} {unit:8s} "
              f"n={samples[key]:<5d} {unscaled}", file=sys.stderr)
    print(f"{name:14s} {'error_rate':12s} {ledger.error_rate:12.4f} "
          f"{'fraction':8s} n={ledger.attempted}", file=sys.stderr)
    if beyond < 10:
        print(f"perfbench: only {beyond} cells beyond p90; lengthen the run",
              file=sys.stderr)
    return _result(ledger, [], metrics)


def _pass(cells_to_run, ledger: Ledger, tracer=None, snapshot_at=None):
    """Run cells once; returns (digests, wall seconds, counts after
    *snapshot_at* cells)."""
    import spans

    inst = spans.Installation(tracer).install() if tracer else None
    digests, snapshot = [], None
    try:
        start = time.perf_counter()
        for k, cell in enumerate(cells_to_run):
            if k == snapshot_at:
                snapshot = dict(tracer.counts)
            digests.append(ledger.run(cell)[1])
        wall = time.perf_counter() - start
    finally:
        if inst is not None:
            inst.remove()
    if inst is not None and inst.missing:
        print("perfbench: not wrapped (absent in this code): "
              + ", ".join(inst.missing), file=sys.stderr)
    return digests, wall, snapshot


def trace(name: str, seed: int, gauge) -> dict:
    import cells
    import spans

    workload = cells.WORKLOADS[name]
    cell_list = setup(workload, seed, gauge)
    chosen = [cell_list[i % len(cell_list)]
              for i in range(workload.trace_cells)]
    ledger = Ledger(name, seed)
    problems: list[str] = []

    untraced, wall_u, _ = _pass(chosen, ledger)
    tracer = spans.Tracer()
    traced, wall_t, snap = _pass(chosen, ledger, tracer, REPEAT_CELLS)
    second = spans.Tracer()
    _pass(chosen[:REPEAT_CELLS], ledger, second)
    repeat = second.counts

    if traced != untraced:
        problems.append("traced and untraced virtual outcomes differ")
    left = spans.leftover_wrappers()
    if left:
        problems.append("wrappers left installed: " + ", ".join(left[:5]))
    if tracer.open_spans():
        problems.append(f"{tracer.open_spans()} spans still open")
    share, floor = spans.SUM_TOLERANCE
    gap = abs(tracer.accounted_s() - wall_t)
    if gap > share * wall_t + floor:
        problems.append(f"self+handoff+other misses traced wall time by "
                        f"{gap:.4f} s of {wall_t:.4f} s")
    if repeat != snap:
        diff = sorted(k for k in set(repeat) | set(snap)
                      if repeat.get(k) != snap.get(k))
        problems.append("per-layer counts differ between two traced "
                        "passes: " + ", ".join(diff[:6]))
    counts = tracer.layer_counts()
    for key in workload.zeros:
        if counts[key] != 0:
            problems.append(f"{key} = {counts[key]} on a workload that "
                            "bypasses it")
    for key in workload.loads:
        if counts[key] <= 0:
            problems.append(f"{key} = 0 on a workload that loads it")
    tracer.dump(OUT / f"spans-{name}-seed{seed}.bin")
    metrics = tracer.metrics(wall_t, wall_u)
    for key, (value, unit) in metrics.items():
        print(f"{name:14s} {key:36s} {value:14.6f} {unit}", file=sys.stderr)
    print(f"{name:14s} traced {wall_t:.3f} s, untraced {wall_u:.3f} s, "
          f"accounted {tracer.accounted_s():.3f} s, cells={len(chosen)}",
          file=sys.stderr)
    return _result(ledger, problems, metrics)


def _result(ledger: Ledger, problems: list[str], metrics: dict) -> dict:
    """The result line; failed cells and failed checks make it incorrect."""
    if "repro.experiments.campaign" in sys.modules:
        problems.append("the campaign result-cache machinery was loaded")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    for cause, n in sorted(ledger.causes.items()):
        print(f"perfbench: {n} cell(s) failed: {cause}", file=sys.stderr)
    return {
        "correct": ledger.failed == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import cells

    env = {k: v for k, v in os.environ.items() if k != _T0_ENV}
    status = 0
    for name in cells.WORKLOADS:
        for mode in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", mode],
                env=env, capture_output=True, text=True, timeout=600,
                check=False)
            sys.stdout.write(proc.stderr)
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            result = json.loads(last[0]) if proc.returncode == 0 else {}
            ok = result.get("correct") is True
            print(f"{name:14s} trace={mode} correct={ok} "
                  f"attempted={result.get('attempted')} "
                  f"failed={result.get('failed')}")
            status |= 0 if ok else 1
    return status


def pin() -> None:
    """Run every cell of every workload at the default seed; write digests."""
    import cells

    out = {"seed": cells.DEFAULT_SEED, "cells": cells.CELLS, "workloads": {}}
    for name, workload in cells.WORKLOADS.items():
        _pin_process_defaults()
        digests = []
        for cell in workload.cells(cells.DEFAULT_SEED):
            outcomes = cells.run_cell(cell)
            cells.check_cell(cell, outcomes)
            digests.append(cells.digest(outcomes))
        out["workloads"][name] = digests
        print(f"pinned {name}: {len(digests)} cells", file=sys.stderr)
    DIGESTS.write_text(json.dumps(out, indent=0) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload in both modes")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the default seed's cell digests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        _fail(f"no simulator sources under {SRC}; run from a checkout")
    _ensure_fresh_interpreter()
    sys.path.insert(0, str(HERE))
    import cells
    import speed

    seed = cells.DEFAULT_SEED if args.seed is None else args.seed
    if args.report:
        return report(seed, args.seconds)
    if args.pin:
        pin()
        return 0
    if args.workload not in cells.WORKLOADS:
        _fail(f"--workload must be one of {', '.join(cells.WORKLOADS)}")
    with speed.SpeedKernel() as kernel:
        gauge = speed.IntervalGauge(kernel)
        gauge.sample()  # before the simulator is imported
        if args.setup_probe:
            setup(cells.WORKLOADS[args.workload], seed, gauge)
            print(*map(repr, gauge.scale(_setup_elapsed())))
            return 0
        if args.trace:
            result = trace(args.workload, seed, gauge)
        else:
            result = measure(args.workload, seed, args.seconds, gauge)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Parallel campaign executor with a content-addressed result cache.

The paper's §V evidence is a grid of independent, deterministic DES
runs (the golden-trace harness pins that results are byte-identical
regardless of where or when a cell runs).  This module exploits both
properties:

- **Parallelism** — any selection of registry experiments runs across
  ``jobs`` worker processes; results are merged in *selection* order
  (never completion order), so the output of ``-j 8`` is byte-identical
  to ``-j 1``.
- **Caching** — every successful cell is stored in an on-disk
  content-addressed cache keyed by ``(experiment id, cell config
  digest, code fingerprint of src/repro)``.  A re-run after an
  interrupt, crash, or partial selection only executes missing or
  invalidated cells; editing any source file under ``src/repro``
  invalidates everything (the fingerprint changes).
- **Resumability** — a manifest (``results/campaign.json`` by default)
  records per-cell status, runner duration, executing worker, and cache
  hit/miss, rewritten atomically after every cell so a killed campaign
  leaves an auditable partial record.

Three entry points share this executor: :func:`repro.api.run_campaign`
(the facade), ``python -m repro.experiments campaign`` (the CLI, with
live per-cell progress), and ``api.sweep(..., parallel=N)`` (grid cells
through the same fork pool via :func:`run_tasks`).

Worker strategy: on platforms with ``fork`` the pool inherits the
parent's loaded modules, so workers only receive an experiment id
(always picklable) and :func:`run_tasks` can even ship closures.  Where
fork is unavailable the executor degrades to spawn semantics for
registry cells and to serial execution for closure grids.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, is_dataclass
from typing import Any, Callable, Sequence

from repro.defaults import JobDefaults, job_defaults
from repro.experiments.registry import Experiment, get_experiment, select
from repro.experiments.report import artifact_dict, write_artifact_files

SCHEMA = 1

#: default on-disk locations, relative to the campaign's results dir
MANIFEST_NAME = "campaign.json"
CACHE_DIR_NAME = "cache"


# ---------------------------------------------------------------------------
# cache keys
# ---------------------------------------------------------------------------


def code_fingerprint(root: str | None = None) -> str:
    """Digest of every ``.py`` file under ``src/repro`` — the cache's
    code key.  Any source edit (even a comment) invalidates the cache;
    false misses are cheap, false hits are silent wrong results."""
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256()
    paths: list[str] = []
    for dirpath, _dirnames, filenames in os.walk(root):
        paths.extend(
            os.path.join(dirpath, fn) for fn in filenames if fn.endswith(".py")
        )
    for path in sorted(paths):
        h.update(os.path.relpath(path, root).encode())
        h.update(b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _jsonable(value: Any) -> Any:
    if isinstance(value, bytes):
        return value.hex()
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in asdict(value).items()}
    return value


def _digest(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=repr).encode()
    ).hexdigest()[:16]


def experiment_config_digest(
    exp: Experiment, crypto: Any = None, engine: Any = None
) -> str:
    """Config digest of a registry cell (its configuration *is* its
    registration; the runner's behavior is covered by the code key).

    *crypto* (a :class:`repro.encmpi.plan.CryptoPlan`) is the
    campaign-wide default plan; its canonical token salts the digest so
    serial and cryptmpi runs of the same cell occupy distinct cache
    entries.  *engine* (a :class:`repro.des.options.EngineOptions`)
    salts the same way — runtimes are byte-equivalent by construction,
    but a cache key must never *assume* an invariant the parity checks
    exist to enforce.  The experiment's own ``cluster`` override — when
    set — joins through its canonical :meth:`~ClusterSpec.token`."""
    doc: dict[str, Any] = {
        "kind": "experiment", "id": exp.id, "paper_ref": exp.paper_ref,
        "cost": exp.cost,
    }
    if exp.cluster is not None:
        doc["cluster"] = exp.cluster.token()
    if crypto is not None:
        doc["crypto"] = crypto.token()
    if engine is not None:
        doc["engine"] = engine.token()
    return _digest(doc)


def _network_token(network: Any) -> str:
    """Canonical cache-key spelling of any ``network=`` argument."""
    if isinstance(network, str):
        from repro.models.network import parse_network_spec

        return parse_network_spec(network).token()
    if hasattr(network, "token"):  # FabricSpec
        return network.token()
    return network.name  # NetworkModel / NoiseModel


def job_config_digest(
    workload: Callable,
    *,
    nranks: int,
    network: Any = "ethernet",
    security: Any = None,
    placement: str = "block",
    cluster: Any = None,
    engine: Any = None,
) -> str:
    """Config digest of one simulated-job cell (the :func:`repro.api`
    argument surface).  Any change to the security config, fabric, rank
    count, placement, cluster shape, engine options, or the workload's
    own source flips the digest — the cache-miss conditions the tests
    pin."""
    try:
        import inspect

        src = hashlib.sha256(inspect.getsource(workload).encode()).hexdigest()
    except (OSError, TypeError):
        code = getattr(workload, "__code__", None)
        src = hashlib.sha256(code.co_code).hexdigest() if code else "opaque"
    return _digest(
        {
            "kind": "job",
            "workload": f"{getattr(workload, '__module__', '?')}:"
            f"{getattr(workload, '__qualname__', repr(workload))}",
            "workload_src": src,
            "nranks": nranks,
            # FabricSpec/NoiseModel carry their canonical token (a clean
            # spec tokens to the bare name, so historical keys survive);
            # a noisy fabric therefore always gets its own cache key.
            "network": _network_token(network),
            "security": _jsonable(security),
            "placement": placement,
            "cluster": cluster.token() if hasattr(cluster, "token") else _jsonable(cluster),
            "engine": engine.token() if engine is not None else None,
        }
    )


def cell_key(exp_id: str, config_digest: str, fingerprint: str) -> str:
    """The content address of one cell's result."""
    return hashlib.sha256(
        f"{exp_id}\n{config_digest}\n{fingerprint}".encode()
    ).hexdigest()[:32]


# ---------------------------------------------------------------------------
# the on-disk cache
# ---------------------------------------------------------------------------


class ResultCache:
    """Content-addressed JSON store: one ``<key>.json`` file per entry.

    Entries are written atomically (tmp + rename), so a crash mid-write
    never leaves a truncated entry; unreadable or schema-mismatched
    files read as misses, never as errors.
    """

    def __init__(self, path: str):
        self.path = path

    def _file(self, key: str) -> str:
        return os.path.join(self.path, f"{key}.json")

    def get(self, key: str) -> dict | None:
        try:
            with open(self._file(key)) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if entry.get("schema") != SCHEMA or entry.get("key") != key:
            return None
        return entry

    def put(self, key: str, entry: dict) -> None:
        os.makedirs(self.path, exist_ok=True)
        entry = dict(entry, schema=SCHEMA, key=key)
        tmp = self._file(key) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(entry, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, self._file(key))

    def keys(self) -> list[str]:
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        return sorted(n[:-5] for n in names if n.endswith(".json"))

    def __len__(self) -> int:
        return len(self.keys())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for key in self.keys():
            try:
                os.unlink(self._file(key))
                removed += 1
            except OSError:
                pass
        return removed


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellOutcome:
    """One campaign cell's result and provenance."""

    experiment_id: str
    status: str  # "ok" | "failed"
    #: True when the artifact came from the cache or a resumed manifest
    cached: bool
    #: content address of the cell ("" when caching was disabled)
    key: str
    #: runner wall-clock seconds (the *original* run's for cache hits)
    seconds: float
    #: pid of the process that executed the runner; -1 for cache hits
    worker: int
    #: canonical structured artifact (None on failure)
    artifact: dict | None
    #: rendered artifact text (None on failure)
    text: str | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one :func:`run_campaign` invocation (frozen)."""

    cells: tuple[CellOutcome, ...]
    #: campaign wall-clock seconds
    duration: float
    jobs: int
    cache_enabled: bool
    code_fingerprint: str
    manifest_path: str | None

    @property
    def hits(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def misses(self) -> int:
        return sum(1 for c in self.cells if not c.cached)

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(c.experiment_id for c in self.cells if not c.ok)

    @property
    def ok(self) -> bool:
        return not self.failed

    def cell(self, exp_id: str) -> CellOutcome:
        for c in self.cells:
            if c.experiment_id == exp_id:
                return c
        raise KeyError(exp_id)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _execute_experiment(exp_id: str) -> dict:
    """Run one registry cell; always returns a plain picklable dict.

    Runs in a pool worker (or inline when ``jobs=1``); exceptions are
    folded into the payload because a raising worker would poison the
    pool and lose the other in-flight cells.
    """
    t0 = time.perf_counter()
    try:
        exp = get_experiment(exp_id)
        artifact = exp.runner()
        # Round-trip through JSON so the in-memory artifact is the same
        # object shape (lists, not tuples) as one restored from the cache.
        doc = json.loads(json.dumps(artifact_dict(exp, artifact)))
        text = artifact.render()
    except Exception as exc:  # noqa: BLE001 - per-cell isolation
        return {
            "ok": False,
            "error": f"{exc!r}",
            "seconds": time.perf_counter() - t0,
            "pid": os.getpid(),
        }
    return {
        "ok": True,
        "artifact": doc,
        "text": text,
        "seconds": time.perf_counter() - t0,
        "pid": os.getpid(),
    }


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _write_json_atomic(path: str, doc: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def run_campaign(
    selection: Sequence[str] | Sequence[Experiment] = ("all",),
    *,
    jobs: int = 1,
    cache: bool = True,
    resume: bool = False,
    results_dir: str | None = "results",
    cache_dir: str | None = None,
    write_artifacts: bool = True,
    write_manifest: bool = True,
    sanitize: bool = False,
    crypto: Any = None,
    engine: Any = None,
    on_start: Callable[[Experiment, int, int], None] | None = None,
    on_cell: Callable[[CellOutcome, int, int], None] | None = None,
) -> CampaignResult:
    """Run a selection of experiments across *jobs* workers.

    *selection* is either selection tokens (see
    :func:`repro.experiments.registry.select`) or resolved
    :class:`Experiment` objects.  Cells execute on a process pool
    (``jobs`` workers) but merge in selection order, so results are
    byte-identical to a serial run.  With *cache* on, cells whose
    content address already exists on disk are served from the cache
    without executing any runner; with *resume* on, cells recorded
    ``ok`` in an existing manifest (same code fingerprint) whose
    exported artifact files still exist are reused even without a cache
    entry.

    *on_start(exp, index, total)* fires when a cell is dispatched (in
    selection order); *on_cell(outcome, done_count, total)* fires as
    cells finish (completion order — with ``jobs=1`` that is selection
    order).  Failures never raise; they surface as ``failed`` cells.

    *sanitize*, *crypto* and *engine* are entered as the process-wide
    :func:`repro.defaults.job_defaults` for the executing phase, so
    every simulated job inside every runner — including fork-pool
    workers, which inherit them — uses them.  With *sanitize*, every
    job runs with the runtime sanitizer armed; sanitizer failures
    surface as failed cells like any other runner exception.  Note
    that cache hits skip runners entirely and therefore skip the
    sanitizer; pass ``cache=False`` for a full sanitized sweep.

    *crypto* (a :class:`repro.encmpi.plan.CryptoPlan`) overlays its
    pipeline geometry on every config built without a plan, and salts
    every cell's cache key with the plan's token.

    *engine* (an :class:`repro.des.options.EngineOptions`, or its spec
    string, e.g. ``"coroutines"``) picks the runtime every simulated
    job executes on, and salts every cell's cache key with the
    options' token (``make check-runtime-parity`` relies on the two
    runtimes occupying distinct cache entries).
    """
    t0 = time.perf_counter()
    if isinstance(engine, str):
        from repro.des.options import parse_engine_options

        engine = parse_engine_options(engine)
    # type-checks the three before their tokens salt the cache keys
    JobDefaults(sanitize=sanitize, crypto=crypto, engine=engine)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    requested = list(selection)
    if all(isinstance(s, str) for s in requested):
        exps: list[Experiment] = select(requested)
    else:
        exps = [
            e if isinstance(e, Experiment) else get_experiment(e)
            for e in requested
        ]
    fingerprint = code_fingerprint()
    store: ResultCache | None = None
    if cache:
        if cache_dir is None:
            if results_dir is None:
                raise ValueError("cache=True needs results_dir or cache_dir")
            cache_dir = os.path.join(results_dir, CACHE_DIR_NAME)
        store = ResultCache(cache_dir)
    manifest_path: str | None = None
    if write_manifest:
        if results_dir is None:
            raise ValueError("write_manifest=True needs results_dir")
        manifest_path = os.path.join(results_dir, MANIFEST_NAME)

    total = len(exps)
    keys = {e.id: cell_key(e.id, experiment_config_digest(e, crypto, engine),
                           fingerprint)
            for e in exps}
    outcomes: dict[str, CellOutcome] = {}

    # -- previous manifest (resume) ----------------------------------------
    previous: dict = {}
    if resume and manifest_path and os.path.exists(manifest_path):
        try:
            with open(manifest_path) as fh:
                prev_doc = json.load(fh)
        except (OSError, ValueError):
            prev_doc = {}
        if prev_doc.get("code_fingerprint") == fingerprint:
            previous = prev_doc.get("cells", {})

    def from_resume(exp: Experiment) -> CellOutcome | None:
        rec = previous.get(exp.id)
        if not rec or rec.get("status") != "ok" or results_dir is None:
            return None
        txt_path = os.path.join(results_dir, f"{exp.id}.txt")
        json_path = os.path.join(results_dir, f"{exp.id}.json")
        try:
            with open(txt_path) as fh:
                text = fh.read().rstrip("\n")
            with open(json_path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        return CellOutcome(
            experiment_id=exp.id, status="ok", cached=True,
            key=keys[exp.id], seconds=float(rec.get("seconds", 0.0)),
            worker=-1, artifact=doc, text=text,
        )

    manifest_doc: dict = {
        "schema": SCHEMA,
        "code_fingerprint": fingerprint,
        "jobs": jobs,
        "cache": cache,
        "started": time.time(),
        "finished": None,
        "selection": [e.id for e in exps],
        "cells": {},
    }

    def record(outcome: CellOutcome) -> None:
        outcomes[outcome.experiment_id] = outcome
        cell_rec: dict = {
            "status": outcome.status,
            "cached": outcome.cached,
            "key": outcome.key,
            "seconds": round(outcome.seconds, 6),
            "worker": outcome.worker,
        }
        if outcome.error:
            cell_rec["error"] = outcome.error
        manifest_doc["cells"][outcome.experiment_id] = cell_rec
        if manifest_path:
            _write_json_atomic(manifest_path, manifest_doc)
        if outcome.ok and write_artifacts and results_dir is not None:
            write_artifact_files(
                results_dir, outcome.experiment_id, outcome.text,
                outcome.artifact,
            )
        if on_cell is not None:
            on_cell(outcome, len(outcomes), total)

    def outcome_from_execution(exp: Experiment, payload: dict) -> CellOutcome:
        if payload["ok"]:
            outcome = CellOutcome(
                experiment_id=exp.id, status="ok", cached=False,
                key=keys[exp.id], seconds=payload["seconds"],
                worker=payload["pid"], artifact=payload["artifact"],
                text=payload["text"],
            )
            if store is not None:
                store.put(
                    keys[exp.id],
                    {
                        "experiment": exp.id,
                        "config_digest": experiment_config_digest(
                            exp, crypto, engine),
                        "code_fingerprint": fingerprint,
                        "seconds": payload["seconds"],
                        "artifact": payload["artifact"],
                        "text": payload["text"],
                        "created": time.time(),
                    },
                )
            return outcome
        return CellOutcome(
            experiment_id=exp.id, status="failed", cached=False,
            key=keys[exp.id], seconds=payload["seconds"],
            worker=payload["pid"], artifact=None, text=None,
            error=payload["error"],
        )

    # -- phase 1: satisfy cells from cache / resume ------------------------
    pending: list[tuple[int, Experiment]] = []
    for i, exp in enumerate(exps):
        hit: CellOutcome | None = None
        if store is not None:
            entry = store.get(keys[exp.id])
            if entry is not None:
                hit = CellOutcome(
                    experiment_id=exp.id, status="ok", cached=True,
                    key=keys[exp.id],
                    seconds=float(entry.get("seconds", 0.0)), worker=-1,
                    artifact=entry["artifact"], text=entry["text"],
                )
        if hit is None and resume:
            hit = from_resume(exp)
        if hit is not None:
            record(hit)
        else:
            pending.append((i, exp))

    # -- phase 2: execute the rest -----------------------------------------
    if pending:
        # entered before any worker forks, so children inherit the
        # defaults; restored afterwards so they never leak past the
        # campaign
        with job_defaults(sanitize=sanitize, crypto=crypto, engine=engine):
            if jobs == 1 or len(pending) == 1:
                for i, exp in pending:
                    if on_start is not None:
                        on_start(exp, i, total)
                    record(outcome_from_execution(
                        exp, _execute_experiment(exp.id)))
            else:
                ctx = _fork_context()
                nworkers = min(jobs, len(pending))
                with ProcessPoolExecutor(
                    max_workers=nworkers, mp_context=ctx
                ) as pool:
                    futures = {}
                    for i, exp in pending:
                        if on_start is not None:
                            on_start(exp, i, total)
                        futures[pool.submit(_execute_experiment, exp.id)] = exp
                    not_done = set(futures)
                    while not_done:
                        done, not_done = wait(
                            not_done, return_when=FIRST_COMPLETED)
                        for fut in done:
                            record(outcome_from_execution(
                                futures[fut], fut.result()))

    manifest_doc["finished"] = time.time()
    if manifest_path:
        _write_json_atomic(manifest_path, manifest_doc)

    return CampaignResult(
        cells=tuple(outcomes[e.id] for e in exps),
        duration=time.perf_counter() - t0,
        jobs=jobs,
        cache_enabled=cache,
        code_fingerprint=fingerprint,
        manifest_path=manifest_path,
    )


# ---------------------------------------------------------------------------
# the shared fork pool for arbitrary task grids (api.sweep(parallel=N))
# ---------------------------------------------------------------------------

#: task table inherited by fork children; index-addressed so only ints
#: cross the pipe (closures never need pickling)
_FORK_TASKS: Sequence[Callable[[], Any]] | None = None


def _run_fork_task(index: int):
    assert _FORK_TASKS is not None
    return _FORK_TASKS[index]()


def run_tasks(tasks: Sequence[Callable[[], Any]], jobs: int) -> list[Any]:
    """Run zero-argument *tasks* across a fork pool; results come back
    in task order (the parallel-equals-serial merge rule).

    Tasks may be closures: children inherit the task table through
    fork, so only their indices are pickled.  Each task's *return
    value* must still pickle (JobResults, recorders, and plain data
    do).  Without fork (or with ``jobs=1``) execution is serial in the
    calling process.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = list(tasks)
    ctx = _fork_context()
    if jobs == 1 or len(tasks) <= 1 or ctx is None:
        return [task() for task in tasks]
    global _FORK_TASKS
    if _FORK_TASKS is not None:
        # nested run_tasks (a task spawning a grid) — run serially
        # rather than fork from inside a pool worker
        return [task() for task in tasks]
    _FORK_TASKS = tasks
    try:
        with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
            return pool.map(_run_fork_task, range(len(tasks)))
    finally:
        _FORK_TASKS = None

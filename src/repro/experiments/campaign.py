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
  digest, code fingerprint of src/repro)``.  Re-running the same
  campaign after an interrupt, crash, or partial selection only
  executes missing or invalidated cells — the cache is the one resume
  path; editing any source file under ``src/repro`` invalidates
  everything (the fingerprint changes).
- **The manifest** — ``<results_dir>/campaign.json`` records per-cell
  status, runner duration, executing worker, and cache hit/miss,
  rewritten atomically after every cell so a killed campaign leaves an
  auditable partial record.  It is a record only; nothing reads it back.

*results_dir* is the campaign's one output location: the artifacts,
the manifest and ``cache/`` all live under it.  Callers are
:func:`repro.api.run_campaign` (a lazy forwarder to
:func:`run_campaign`) and ``python -m repro.experiments run`` /
``campaign``.

Worker strategy: this module's process pool is the only one in the
package.  On platforms with ``fork`` it inherits the parent's loaded
modules and :func:`repro.defaults.job_defaults`, so workers only
receive an experiment id (always picklable).  Where fork is
unavailable the pool degrades to spawn semantics.
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
    exist to enforce."""
    doc: dict[str, Any] = {
        "kind": "experiment", "id": exp.id, "paper_ref": exp.paper_ref,
        "cost": exp.cost,
    }
    if crypto is not None:
        doc["crypto"] = crypto.token()
    if engine is not None:
        doc["engine"] = engine.token()
    return _digest(doc)


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
    #: True when the artifact came from the cache (no runner executed)
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
    results_dir: str | None = "results",
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
    byte-identical to a serial run.

    *results_dir* receives every ok cell's ``<id>.txt``/``<id>.json``
    and the ``campaign.json`` manifest; with *cache* on, cells whose
    content address already exists under ``<results_dir>/cache`` are
    served from it without executing any runner, so re-running an
    interrupted campaign executes only the missing cells.  ``None``
    writes nothing and needs ``cache=False``.

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
    sanitizer; a cold cache (a fresh *results_dir*) or ``cache=False``
    gives a full sanitized sweep.

    *crypto* (a :class:`repro.encmpi.plan.CryptoPlan`) overlays its
    pipeline geometry on every config built without a plan, and salts
    every cell's cache key with the plan's token.

    *engine* (an :class:`repro.des.options.EngineOptions`, or its spec
    string, e.g. ``"coroutines"``) picks the runtime every simulated
    job executes on, and salts every cell's cache key with the
    options' token, so the two runtimes occupy distinct cache
    entries.
    """
    t0 = time.perf_counter()
    if engine is not None:
        from repro.des.options import EngineOptions

        engine = EngineOptions.coerce(engine)
    # type-checks the three before their tokens salt the cache keys
    JobDefaults(sanitize=sanitize, crypto=crypto, engine=engine)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cache and results_dir is None:
        raise ValueError("cache=True needs a results_dir to hold the cache")
    requested = list(selection)
    if all(isinstance(s, str) for s in requested):
        exps: list[Experiment] = select(requested)
    else:
        exps = [
            e if isinstance(e, Experiment) else get_experiment(e)
            for e in requested
        ]
    fingerprint = code_fingerprint()
    store = (ResultCache(os.path.join(results_dir, CACHE_DIR_NAME))
             if cache else None)
    manifest_path = (None if results_dir is None
                     else os.path.join(results_dir, MANIFEST_NAME))

    total = len(exps)
    keys = {e.id: cell_key(e.id, experiment_config_digest(e, crypto, engine),
                           fingerprint)
            for e in exps}
    outcomes: dict[str, CellOutcome] = {}
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
            if outcome.ok:
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

    # -- phase 1: satisfy cells from the cache -----------------------------
    pending: list[tuple[int, Experiment]] = []
    for i, exp in enumerate(exps):
        entry = store.get(keys[exp.id]) if store is not None else None
        if entry is None:
            pending.append((i, exp))
        else:
            record(CellOutcome(
                experiment_id=exp.id, status="ok", cached=True,
                key=keys[exp.id], seconds=float(entry.get("seconds", 0.0)),
                worker=-1, artifact=entry["artifact"], text=entry["text"],
            ))

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

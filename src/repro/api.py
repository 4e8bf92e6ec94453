"""The unified public facade of the reproduction.

Everything a caller needs rides behind three functions::

    from repro import api

    result = api.run_job(my_rank_fn, nranks=4,
                         security=api.SecurityConfig(library="boringssl"))
    points = api.sweep(my_rank_fn, nranks=4,
                       securities=(None, api.SecurityConfig()))
    artifact = api.get_experiment("fig6").runner()

Before this module existed, callers imported from four subpackages
(``repro.simmpi.world``, ``repro.workloads.*``, ``repro.encmpi.config``,
``repro.experiments.registry``); those import paths keep working, but
new code should come through here — this is the surface the project
keeps stable.

Design rules of the facade:

- every argument beyond the workload itself is **keyword-only**;
- results are frozen dataclasses, not tuples;
- a workload is one plain function, run once per rank, receiving a
  :class:`repro.simmpi.world.RankContext`.  When a
  :class:`SecurityConfig` is supplied, the context's ``enc`` attribute
  carries a ready :class:`repro.encmpi.context.EncryptedComm` for that
  rank; on plain jobs ``ctx.enc`` is None.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence, Union

from repro.des.options import (
    EngineOptions,
    parse_engine_options,
    resolve_engine_options,
)
from repro.encmpi.config import SecurityConfig
from repro.encmpi.plan import CryptoPlan, parse_crypto_plan
from repro.experiments.registry import (
    Experiment,
    get_experiment,
    list_experiments,
)
from repro.experiments.stats import JobStats, StatsSpec, parse_stats_spec
from repro.models.cpu import PAPER_CLUSTER, ClusterSpec, parse_cluster_spec
from repro.models.network import FabricSpec, NetworkModel, parse_network_spec
from repro.models.predict import Prediction, PredictionModel
from repro.simmpi.faults import FaultInjector, FaultPlan, parse_fault_plan
from repro.simmpi.resilience import (
    ResiliencePolicy,
    ResilienceReport,
    parse_resilience_policy,
)
from repro.simmpi.tracing import (
    CommTrace,
    TraceMode,
    TraceRecorder,
    parse_trace_mode,
)
from repro.simmpi.world import RankContext, run_program

if TYPE_CHECKING:
    from repro.experiments.campaign import CampaignResult

__all__ = [
    "ClusterSpec",
    "CryptoPlan",
    "EngineOptions",
    "Experiment",
    "FabricSpec",
    "FaultInjector",
    "FaultPlan",
    "JobResult",
    "JobStats",
    "PAPER_CLUSTER",
    "Prediction",
    "PredictionModel",
    "ResiliencePolicy",
    "ResilienceReport",
    "RunOptions",
    "SecurityConfig",
    "StatsSpec",
    "SweepPoint",
    "TraceMode",
    "calibrate_predictor",
    "get_experiment",
    "lint_job",
    "list_experiments",
    "parse_cluster_spec",
    "parse_crypto_plan",
    "parse_engine_options",
    "parse_fault_plan",
    "parse_network_spec",
    "parse_resilience_policy",
    "parse_stats_spec",
    "parse_trace_mode",
    "predict",
    "run_campaign",
    "run_job",
    "sweep",
    "verify_job",
]

#: a fault argument: the declarative :class:`FaultPlan` (preferred —
#: resolved into a fresh injector per job/cell), a raw
#: :class:`FaultInjector` instance (deprecated; single jobs only), or a
#: zero-argument factory producing a fresh injector per sweep cell
FaultSpec = Union[FaultPlan, FaultInjector, Callable[[], FaultInjector], None]

#: deprecated spellings already warned about this process (the PR-1
#: shim style: one DeprecationWarning per name, then silence)
_warned: set[str] = set()


def _warn_once(name: str, message: str) -> None:
    if name in _warned:
        return
    _warned.add(name)
    warnings.warn(message, DeprecationWarning, stacklevel=4)


@dataclass(frozen=True)
class RunOptions:
    """Typed bundle of the cross-cutting ``run_job``/``sweep`` keywords.

    The keyword tail these functions accumulated (``trace``, faults,
    ``sanitize``, ``resilience``, ``cluster``) folds into one frozen
    value passed as ``options=``; the individual keywords keep working
    and are equivalent byte-for-byte (pinned by
    ``tests/api/test_run_options.py``).  Passing both ``options=`` and
    an individual keyword raises — except ``cluster``, which predates
    the bundle as a first-class job-shape keyword and may accompany an
    ``options=`` bundle that leaves its own ``cluster`` unset.

    ``cluster`` makes the core topology part of the job configuration
    proper: None means the paper's testbed (:data:`PAPER_CLUSTER`), and
    the resolved spec feeds the content-addressed campaign cache key
    (:func:`repro.experiments.campaign.job_config_digest`).

    ``engine`` (an :class:`EngineOptions` or a spec string like
    ``"coroutines:max_ranks=4096"``) picks the rank runtime — the
    coroutine scheduler or the thread-per-rank runtime plain functions
    need —
    plus the rank ceiling and the handoff checks; None defers to the
    process-wide default (:func:`repro.des.options.set_default_engine_options`).

    ``stats`` (a :class:`repro.experiments.stats.StatsSpec` or a spec
    string like ``"reps=20,confidence=95%"``) turns the job into seeded
    repetitions: the fabric's noise seed is offset per repetition and
    ``JobResult.stats`` carries the samples plus a bootstrap CI.
    """

    trace: TraceMode = False
    faults: FaultSpec = None
    sanitize: bool | None = None
    resilience: ResiliencePolicy | None = None
    cluster: ClusterSpec | None = None
    engine: EngineOptions | None = None
    stats: StatsSpec | None = None

    def __post_init__(self) -> None:
        # normalize the trace mode up front so equality between an
        # options bundle and the loose-kwargs spelling is structural
        object.__setattr__(self, "trace", parse_trace_mode(self.trace))
        if isinstance(self.engine, str):
            object.__setattr__(self, "engine", parse_engine_options(self.engine))
        if self.engine is not None and not isinstance(self.engine, EngineOptions):
            raise TypeError(
                f"engine must be an EngineOptions, a spec string, or None, "
                f"got {self.engine!r}"
            )
        if self.resilience is not None and not isinstance(
            self.resilience, ResiliencePolicy
        ):
            raise TypeError(
                f"resilience must be a ResiliencePolicy or None, "
                f"got {self.resilience!r}"
            )
        if self.cluster is not None and not isinstance(
            self.cluster, ClusterSpec
        ):
            raise TypeError(
                f"cluster must be a ClusterSpec or None, got {self.cluster!r}"
            )
        if isinstance(self.stats, str):
            object.__setattr__(self, "stats", parse_stats_spec(self.stats))
        if self.stats is not None and not isinstance(self.stats, StatsSpec):
            raise TypeError(
                f"stats must be a StatsSpec, a spec string, or None, "
                f"got {self.stats!r}"
            )


def _resolve_options(
    options: RunOptions | None,
    trace: TraceMode,
    faults: FaultSpec,
    fault_injector: FaultSpec,
    sanitize: bool | None,
    resilience: ResiliencePolicy | None,
    cluster: ClusterSpec | None = None,
    engine: EngineOptions | str | None = None,
    runtime: str | None = None,
    stats: StatsSpec | str | None = None,
    repetitions: int | None = None,
) -> RunOptions:
    """One RunOptions from the loose kwargs and/or the bundle."""
    if repetitions is not None:
        _warn_once(
            "repetitions",
            "repetitions= is deprecated; pass stats=StatsSpec(reps=...) "
            "or a spec string like stats='reps=20' (or fold it into "
            "options=RunOptions(stats=...))",
        )
        if stats is not None:
            raise TypeError("pass stats= or repetitions=, not both")
        stats = StatsSpec(reps=repetitions)
    if isinstance(stats, str):
        stats = parse_stats_spec(stats)
    if stats is not None and not isinstance(stats, StatsSpec):
        raise TypeError(
            f"stats must be a StatsSpec, a spec string, or None, got {stats!r}"
        )
    if runtime is not None:
        _warn_once(
            "runtime",
            "runtime= is deprecated; pass engine=EngineOptions(runtime=...) "
            "or a spec string like engine='coroutines' (or fold it into "
            "options=RunOptions(engine=...))",
        )
        if engine is not None:
            raise TypeError("pass engine= or runtime=, not both")
        engine = parse_engine_options(runtime)
    if isinstance(engine, str):
        engine = parse_engine_options(engine)
    if engine is not None and not isinstance(engine, EngineOptions):
        raise TypeError(
            f"engine must be an EngineOptions, a spec string, or None, "
            f"got {engine!r}"
        )
    if fault_injector is not None:
        _warn_once(
            "fault_injector",
            "fault_injector= is deprecated; declare a frozen "
            "FaultPlan and pass it as faults= (or inside "
            "options=RunOptions(faults=...))",
        )
        if faults is not None:
            raise TypeError("pass faults= or fault_injector=, not both")
        faults = fault_injector
    if faults is not None and not isinstance(faults, FaultPlan):
        _warn_once(
            "raw-fault-injector",
            "raw FaultInjector instances/factories are deprecated; "
            "declare a frozen FaultPlan (rates, seed, filters) instead",
        )
    if options is not None:
        if not isinstance(options, RunOptions):
            raise TypeError(f"options must be a RunOptions, got {options!r}")
        if (
            trace is not False
            or faults is not None
            or sanitize is not None
            or resilience is not None
            or stats is not None
        ):
            raise TypeError(
                "pass the run options either individually (trace=, "
                "faults=, sanitize=, resilience=, cluster=, engine=, "
                "stats=) or bundled via options=RunOptions(...), not both"
            )
        if engine is not None:
            if options.engine is not None:
                raise TypeError(
                    "engine specified twice: as the engine= keyword and "
                    "inside options=RunOptions(engine=...)"
                )
            options = replace(options, engine=engine)
        # cluster predates RunOptions as a first-class job-shape kwarg
        # (like nranks/network), so the loose spelling stays welcome
        # next to an options bundle — only a double specification is
        # ambiguous.
        if cluster is not None:
            if options.cluster is not None:
                raise TypeError(
                    "cluster specified twice: as the cluster= keyword "
                    "and inside options=RunOptions(cluster=...)"
                )
            if not isinstance(cluster, ClusterSpec):
                raise TypeError(
                    f"cluster must be a ClusterSpec or None, got {cluster!r}"
                )
            return replace(options, cluster=cluster)
        return options
    return RunOptions(trace=trace, faults=faults, sanitize=sanitize,
                      resilience=resilience, cluster=cluster, engine=engine,
                      stats=stats)


def _fresh_injector(faults: FaultSpec) -> FaultInjector | None:
    """Resolve a fault spec into the injector for one job/cell."""
    if faults is None or isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return faults.build()
    return faults()


@dataclass(frozen=True)
class JobResult:
    """Outcome of one :func:`run_job` invocation."""

    #: per-rank return values of the workload
    results: list
    #: virtual makespan of the job in seconds
    duration: float
    #: per-rank (start, end) virtual times
    spans: list = field(default_factory=list)
    #: observability payload: a :class:`repro.simmpi.tracing.CommTrace`
    #: when run_job(trace=True); a
    #: :class:`repro.simmpi.tracing.TraceRecorder` (full structured
    #: event stream, ``.comm`` holds the CommTrace view) when
    #: run_job(trace="events") or a recorder instance; else None
    trace: CommTrace | TraceRecorder | None = None
    #: the security configuration the job ran under (None = plain MPI)
    security: SecurityConfig | None = None
    #: fabric name the job ran on
    network: str = "ethernet"
    #: a :class:`repro.analysis.sanitize.SanitizerReport` when the job
    #: ran with ``sanitize=True`` (None otherwise); a job with leaks
    #: raises :class:`repro.analysis.sanitize.SanitizerError` instead
    #: of returning
    sanitizer: Any = None
    #: a :class:`repro.simmpi.resilience.ResilienceReport` when the job
    #: ran with a :class:`ResiliencePolicy` armed (None otherwise)
    resilience: ResilienceReport | None = None
    #: a :class:`repro.experiments.stats.JobStats` when the job ran
    #: with a :class:`StatsSpec` armed (None otherwise): the per-
    #: repetition duration samples plus the bootstrap estimate.  The
    #: rest of the result (results/trace/reports) is repetition 0's.
    stats: JobStats | None = None


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a :func:`sweep` grid."""

    network: str
    security: SecurityConfig | None
    result: JobResult

    @property
    def label(self) -> str:
        lib = self.security.library if self.security is not None else "baseline"
        return f"{self.network}/{lib}"


def _network_name(network: str | FabricSpec | NetworkModel) -> str:
    if isinstance(network, str):
        return network
    if isinstance(network, FabricSpec):
        return network.token()
    return network.name


def run_job(
    workload: Callable[[RankContext], Any],
    *,
    nranks: int = 2,
    security: SecurityConfig | None = None,
    network: str | FabricSpec | NetworkModel = "ethernet",
    cluster: ClusterSpec | None = None,
    placement: str = "block",
    trace: TraceMode = False,
    faults: FaultSpec = None,
    fault_injector: FaultSpec = None,
    sanitize: bool | None = None,
    resilience: ResiliencePolicy | None = None,
    options: RunOptions | None = None,
    engine: EngineOptions | str | None = None,
    runtime: str | None = None,
    stats: StatsSpec | str | None = None,
    repetitions: int | None = None,
) -> JobResult:
    """Run *workload* on *nranks* simulated ranks; the facade's mpiexec.

    With *security* set, each rank's context carries ``ctx.enc`` — an
    :class:`EncryptedComm` configured per the paper's Algorithm 1 — and
    the workload chooses per call whether to speak plain (``ctx.comm``)
    or encrypted (``ctx.enc``) MPI.  All arguments except the workload
    are keyword-only.

    *trace* selects the observability level (:data:`TraceMode`).
    ``False`` (default) costs nothing; ``True`` aggregates per-route
    statistics into a CommTrace; ``"events"`` — or a
    :class:`repro.simmpi.tracing.TraceRecorder` you construct yourself
    — records the full structured event stream (engine, transport,
    collective, AEAD layers) and per-rank counters, exportable as JSONL
    or a Chrome ``about://tracing`` file.  Unknown strings raise
    :class:`ValueError` up front (see :func:`parse_trace_mode`).

    *sanitize* arms the runtime sanitizer
    (:mod:`repro.analysis.sanitize`): deadlock diagnosis with the
    wait-for cycle, leaked-request tracking at job end, and nonce-reuse
    checking on every AEAD seal.  The report rides on
    ``JobResult.sanitizer``; virtual timing is unaffected.

    *faults* takes a declarative :class:`FaultPlan` (preferred; a fresh
    seeded injector is built per job) or — deprecated, with a one-shot
    ``DeprecationWarning`` — a raw :class:`FaultInjector`.  The old
    *fault_injector* keyword keeps working the same way.  *resilience*
    arms the reliable-delivery layer
    (:class:`repro.simmpi.resilience.ResiliencePolicy`): retransmission
    timers, NACK + fresh-nonce retransmission of auth failures, and
    policy-driven escalation; the job-wide
    :class:`~repro.simmpi.resilience.ResilienceReport` rides on
    ``JobResult.resilience``.  *options* bundles trace/faults/sanitize/
    resilience/cluster as one :class:`RunOptions` (equivalent
    byte-for-byte).  *cluster* defaults to the paper's testbed
    (:data:`PAPER_CLUSTER`).

    *network* accepts a bare fabric name (``"ethernet"``), a fabric
    spec string (``"wan:jitter=10%,loss=2%,seed=7"``), a
    :class:`FabricSpec`, or a prebuilt model.  *stats* (a
    :class:`StatsSpec` or ``"reps=20,confidence=95%"``) runs the job as
    seeded repetitions — each offsets the fabric's noise seed — and
    attaches the samples + bootstrap CI as ``JobResult.stats``; the
    deprecated ``repetitions=N`` keyword maps to ``StatsSpec(reps=N)``.
    """
    opts = _resolve_options(options, trace, faults, fault_injector,
                            sanitize, resilience, cluster, engine, runtime,
                            stats=stats, repetitions=repetitions)
    trace = opts.trace
    cluster = opts.cluster if opts.cluster is not None else PAPER_CLUSTER
    if security is None:
        program = workload
    elif inspect.isgeneratorfunction(workload):
        from repro.encmpi.context import EncryptedComm

        # the wrapper must stay a generator function so run_program's
        # runtime="auto" still sees a coroutine-capable workload
        def program(ctx: RankContext):
            ctx.enc = EncryptedComm(ctx, security)
            return (yield from workload(ctx))

    else:
        from repro.encmpi.context import EncryptedComm

        def program(ctx: RankContext) -> Any:
            ctx.enc = EncryptedComm(ctx, security)
            return workload(ctx)

    def _execute(net) -> JobResult:
        sim = run_program(
            nranks,
            program,
            network=net,
            cluster=cluster,
            placement=placement,
            trace=trace,
            fault_injector=_fresh_injector(opts.faults),
            sanitize=opts.sanitize,
            resilience=opts.resilience,
            engine=opts.engine,
        )
        return JobResult(
            results=sim.results,
            duration=sim.duration,
            spans=sim.spans,
            trace=sim.trace,
            security=security,
            network=_network_name(network),
            sanitizer=sim.sanitizer,
            resilience=sim.resilience,
        )

    stats_spec = opts.stats
    if stats_spec is None:
        return _execute(network)
    if isinstance(trace, TraceRecorder) and stats_spec.reps > 1:
        raise RuntimeError(
            "one TraceRecorder cannot be shared across repetitions; use "
            "trace='events' so each repetition records its own stream"
        )
    from repro.experiments.stats import job_stats, rep_networks

    runs = [_execute(net) for net in rep_networks(network, stats_spec)]
    return replace(
        runs[0],
        stats=job_stats(tuple(r.duration for r in runs), stats_spec),
    )


def sweep(
    workload: Callable[[RankContext], Any],
    *,
    nranks: int = 2,
    networks: Sequence[str | FabricSpec | NetworkModel] = ("ethernet",),
    securities: Iterable[SecurityConfig | None] = (None,),
    cluster: ClusterSpec | None = None,
    placement: str = "block",
    trace: TraceMode = False,
    faults: FaultSpec = None,
    fault_injector: FaultSpec = None,
    parallel: int = 1,
    sanitize: bool | None = None,
    resilience: ResiliencePolicy | None = None,
    options: RunOptions | None = None,
    engine: EngineOptions | str | None = None,
    runtime: str | None = None,
    stats: StatsSpec | str | None = None,
    repetitions: int | None = None,
) -> list[SweepPoint]:
    """Run *workload* across the (network × security) grid.

    The grid order is deterministic: networks outermost, securities in
    the order given.  Each cell is an independent :func:`run_job`.
    *trace* is forwarded to every cell (see :func:`run_job`); note that
    passing one TraceRecorder instance across cells raises — each job
    needs its own recorder, so use ``trace="events"`` for sweeps.

    *faults* follows a per-cell rule: a :class:`FaultPlan` (preferred)
    is resolved into a fresh seeded injector for every cell; a single
    raw :class:`FaultInjector` instance (deprecated) is only accepted
    for a one-cell grid (its policy state and ledger are per-job); for
    larger grids pass a plan or a zero-argument factory — e.g.
    ``lambda: FaultInjector(corrupt_every_nth(2))`` — invoked once per
    cell.  *resilience* and *options* work as in :func:`run_job`.

    *parallel* > 1 routes the grid cells through the campaign
    executor's fork pool (:func:`repro.experiments.campaign.run_tasks`):
    cells run on that many worker processes and the returned list is
    still in grid order, byte-identical to a serial sweep.  On
    platforms without ``fork`` the sweep silently degrades to serial.

    *networks* entries may be bare names, fabric spec strings, or
    :class:`FabricSpec` values (see :func:`run_job`); cell labels use
    the canonical token.  *stats* arms seeded repetitions per cell.
    """
    opts = _resolve_options(options, trace, faults, fault_injector,
                            sanitize, resilience, cluster, engine, runtime,
                            stats=stats, repetitions=repetitions)
    trace = opts.trace
    faults = opts.faults
    cluster = opts.cluster
    securities = tuple(securities)
    networks = tuple(networks)
    ncells = len(networks) * len(securities)
    if isinstance(trace, TraceRecorder) and ncells > 1:
        raise RuntimeError(
            "one TraceRecorder cannot be shared across sweep cells; "
            "use a fresh recorder per run (trace='events' gives each "
            "cell its own)"
        )
    if isinstance(faults, FaultInjector) and ncells > 1:
        raise ValueError(
            "one FaultInjector instance cannot be shared across sweep "
            "cells (its policy state and ledger are per-job); pass a "
            "FaultPlan, or a zero-argument factory, e.g. "
            "fault_injector=lambda: FaultInjector(policy)"
        )
    if (
        faults is not None
        and not isinstance(faults, (FaultPlan, FaultInjector))
        and not callable(faults)
    ):
        raise TypeError(
            "faults/fault_injector must be a FaultPlan, a FaultInjector, "
            f"a zero-argument factory, or None, got {faults!r}"
        )

    def make_task(net, sec):
        def task() -> JobResult:
            # A FaultPlan passes through intact so a stats-armed cell
            # can rebuild a fresh injector per repetition; other fault
            # specs resolve to one injector per cell, as before.
            cell_faults = (
                faults if isinstance(faults, FaultPlan)
                else _fresh_injector(faults)
            )
            return run_job(
                workload,
                nranks=nranks,
                security=sec,
                network=net,
                placement=placement,
                options=RunOptions(
                    trace=trace,
                    faults=cell_faults,
                    sanitize=opts.sanitize,
                    resilience=opts.resilience,
                    cluster=cluster,
                    engine=opts.engine,
                    stats=opts.stats,
                ),
            )

        return task

    cells = [(net, sec) for net in networks for sec in securities]
    tasks = [make_task(net, sec) for net, sec in cells]
    if parallel == 1:
        results = [task() for task in tasks]
    else:
        from repro.experiments.campaign import run_tasks

        results = run_tasks(tasks, parallel)
    return [
        SweepPoint(network=_network_name(net), security=sec, result=result)
        for (net, sec), result in zip(cells, results)
    ]


def lint_job(workload: Callable[[RankContext], Any]):
    """Statically lint one workload function; the facade's code review.

    Runs the :mod:`repro.analysis` rule set (MPI protocol, determinism,
    crypto misuse) over the function's source with its top-level
    definitions treated as rank code.  Returns the list of
    :class:`repro.analysis.Finding` (empty when clean), line numbers
    anchored to the defining file::

        findings = api.lint_job(my_rank_fn)
        for f in findings:
            print(f.format())
    """
    from repro.analysis import lint_callable

    return lint_callable(workload)


def verify_job(workload: Callable[[RankContext], Any], *,
               sizes: Sequence[int] = (2, 4)):
    """Flow-sensitively verify one workload function.

    Abstract-interprets the function as a rank program at each world
    size in *sizes*, extracts its symbolic communication graph, and
    checks send/recv match completeness, tag consistency, collective
    call-order agreement, deadlock cycles, and crypto taint hygiene
    (the MPI1xx/CRY1xx rules — ``python -m repro.analysis rules``).
    Returns the list of :class:`repro.analysis.Finding`, line numbers
    anchored to the defining file; a ``# verify-sizes:`` pragma in the
    defining module overrides *sizes*::

        findings = api.verify_job(my_rank_fn)
        assert not findings, findings[0].format()
    """
    from repro.analysis.dataflow import verify_callable

    return verify_callable(workload, sizes=tuple(sizes)).findings


def calibrate_predictor(
    *, cache_dir: str | None = "results/cache", force: bool = False
) -> PredictionModel:
    """Fit (or fetch) the analytical prediction engine; the facade's
    entry to :func:`repro.models.predict.calibrate`.

    Runs the deterministic anchor-cell set through the simulator (each
    cell memoized in the campaign result cache under *cache_dir*;
    ``None`` simulates fresh), fits the per-library crypto curves, the
    Hockney-style wire curves, the max-min-fair pair-sharing factors,
    and the pipelined-mode corrections, and returns a frozen
    :class:`PredictionModel`.  The fitted model is memoized per
    process; *force* refits.  Two calibrations from the same anchors
    produce byte-identical :meth:`PredictionModel.token` strings.
    """
    from repro.models.predict import calibrate

    return calibrate(cache_dir=cache_dir, force=force)


def predict(
    *,
    library: str | None = None,
    fabric: str = "ethernet",
    size: int = 1,
    pairs: int = 1,
    plan: CryptoPlan | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
    cache_dir: str | None = "results/cache",
) -> Prediction:
    """Answer one cell analytically — microseconds, no simulation.

    Calibrates the prediction engine on first use (simulating the
    anchor cells once, cached under *cache_dir*), then evaluates the
    closed-form model: ``pairs == 1`` predicts the ping-pong mean
    one-way time, ``pairs > 1`` the multipair steady-state goodput;
    *plan* selects serial vs cryptmpi pipelined sealing; *faults* +
    *resilience* add the expected-retransmission overhead.  Every
    :class:`Prediction` carries a confidence bound validated against
    held-out simulated cells (see the ``predict`` registry experiment).
    """
    model = calibrate_predictor(cache_dir=cache_dir)
    return model.predict(
        library=library, fabric=fabric, size=size, pairs=pairs,
        plan=plan, faults=faults, resilience=resilience,
    )


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
    crypto: CryptoPlan | None = None,
    engine: EngineOptions | str | None = None,
) -> "CampaignResult":
    """Run a campaign of registry experiments; the facade's batch lane.

    *selection* uses the one selection grammar
    (:func:`repro.experiments.registry.select`): tokens like ``"all"``,
    ``"fast"``, ``"not-slow"`` or explicit ids.  Cells run across
    *jobs* worker processes, merge deterministically in selection
    order, and — with *cache* on — are served from the on-disk
    content-addressed result cache under ``<results_dir>/cache`` keyed
    by (experiment id, config digest, code fingerprint of
    ``src/repro``), so a warm re-run executes no runners at all.  A
    resumable manifest lands at ``<results_dir>/campaign.json``.

    *sanitize* arms the runtime sanitizer for every executed cell (see
    :func:`run_job`); sanitizer violations surface as failed cells.
    Cache hits skip runners and therefore the sanitizer — combine with
    ``cache=False`` for a full sanitized sweep.

    *crypto* sets the process-wide default :class:`CryptoPlan` for the
    campaign (fork-pool workers inherit it): every
    :class:`SecurityConfig` built without an explicit plan adopts its
    pipeline geometry (mode/chunk/helper cores), and the plan's token
    salts every cell's cache key so serial and cryptmpi results never
    collide.

    *engine* sets the process-wide default :class:`EngineOptions` (or a
    spec string like ``"coroutines"``) the same way: every simulated
    job in every cell executes on that rank runtime, and the options'
    token salts the cache keys — ``make check-runtime-parity`` runs the
    fast tier under both runtimes and byte-compares the artifacts.

    Returns a frozen
    :class:`repro.experiments.campaign.CampaignResult`; failures never
    raise mid-campaign, they surface in ``result.failed``.
    """
    from repro.experiments.campaign import run_campaign as _run

    return _run(
        selection,
        jobs=jobs,
        cache=cache,
        resume=resume,
        results_dir=results_dir,
        cache_dir=cache_dir,
        write_artifacts=write_artifacts,
        write_manifest=write_manifest,
        sanitize=sanitize,
        crypto=crypto,
        engine=engine,
    )

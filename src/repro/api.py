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

- every argument beyond the workload itself is **keyword-only**, and
  each job setting has exactly one spelling: its keyword;
- results are frozen dataclasses, not tuples;
- a workload is one plain function, run once per rank, receiving a
  :class:`repro.simmpi.world.RankContext`.  When a
  :class:`SecurityConfig` is supplied, the context's ``enc`` attribute
  carries a ready :class:`repro.encmpi.context.EncryptedComm` for that
  rank; on plain jobs ``ctx.enc`` is None.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from functools import wraps
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.defaults import job_defaults
from repro.des.options import EngineOptions, parse_engine_options
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
from repro.models.predict import Prediction, predict
from repro.simmpi.faults import FaultPlan, parse_fault_plan
from repro.simmpi.resilience import (
    ResiliencePolicy,
    ResilienceReport,
    parse_resilience_policy,
)
from repro.simmpi.tracing import TraceRecorder, check_trace
from repro.simmpi.world import RankContext, run_program

if TYPE_CHECKING:
    from repro.experiments.campaign import CampaignResult

__all__ = [
    "ClusterSpec",
    "CryptoPlan",
    "EngineOptions",
    "Experiment",
    "FabricSpec",
    "FaultPlan",
    "JobResult",
    "JobStats",
    "PAPER_CLUSTER",
    "Prediction",
    "ResiliencePolicy",
    "ResilienceReport",
    "SecurityConfig",
    "StatsSpec",
    "SweepPoint",
    "get_experiment",
    "job_defaults",
    "lint_job",
    "list_experiments",
    "parse_cluster_spec",
    "parse_crypto_plan",
    "parse_engine_options",
    "parse_fault_plan",
    "parse_network_spec",
    "parse_resilience_policy",
    "parse_stats_spec",
    "predict",
    "run_campaign",
    "run_job",
    "sweep",
    "verify_job",
]


def _checked_settings(
    trace: bool | TraceRecorder | None,
    faults: FaultPlan | None,
    resilience: ResiliencePolicy | None,
    cluster: ClusterSpec | None,
    engine: EngineOptions | str | None,
    stats: StatsSpec | str | None,
) -> tuple[EngineOptions | None, StatsSpec | None]:
    """Validate a job's run settings up front; returns the normalized
    (engine, stats), the two that accept spec strings."""
    check_trace(trace)
    if faults is not None and not isinstance(faults, FaultPlan):
        raise TypeError(
            f"faults must be a FaultPlan or None, got {faults!r} (custom "
            "injector policies: repro.simmpi.run_program(fault_injector=...))"
        )
    for name, value, cls in (("resilience", resilience, ResiliencePolicy),
                             ("cluster", cluster, ClusterSpec)):
        if value is not None and not isinstance(value, cls):
            raise TypeError(
                f"{name} must be a {cls.__name__} or None, got {value!r}")
    engine = None if engine is None else EngineOptions.coerce(engine)
    stats = None if stats is None else StatsSpec.coerce(stats)
    return engine, stats


@dataclass(frozen=True)
class JobResult:
    """Outcome of one :func:`run_job` invocation."""

    #: per-rank return values of the workload
    results: list
    #: virtual makespan of the job in seconds
    duration: float
    #: per-rank (start, end) virtual times
    spans: list = field(default_factory=list)
    #: the :class:`repro.simmpi.tracing.TraceRecorder` (full structured
    #: event stream; ``.comm`` and the per-rank counters are views over
    #: it) when run_job(trace=True) or a recorder instance; else None
    trace: TraceRecorder | None = None
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
    trace: bool | TraceRecorder | None = False,
    faults: FaultPlan | None = None,
    sanitize: bool | None = None,
    resilience: ResiliencePolicy | None = None,
    engine: EngineOptions | str | None = None,
    stats: StatsSpec | str | None = None,
) -> JobResult:
    """Run *workload* on *nranks* simulated ranks; the facade's mpiexec.

    With *security* set, each rank's context carries ``ctx.enc`` — an
    :class:`EncryptedComm` configured per the paper's Algorithm 1 — and
    the workload chooses per call whether to speak plain (``ctx.comm``)
    or encrypted (``ctx.enc``) MPI.  All arguments except the workload
    are keyword-only, and each setting has exactly this one spelling.

    *trace* ``False`` (default) costs nothing; ``True`` — or a
    :class:`repro.simmpi.tracing.TraceRecorder` you construct yourself
    — records every event of the job (engine, transport, collective,
    AEAD layers), exportable as JSONL or a Chrome ``about://tracing``
    file; the per-route ``.comm`` statistics and per-rank counters are
    views over that stream.  Any other value, strings included, raises
    :class:`TypeError` up front.

    *sanitize* arms the runtime sanitizer
    (:mod:`repro.analysis.sanitize`): deadlock diagnosis with the
    wait-for cycle, leaked-request tracking at job end, and nonce-reuse
    checking on every AEAD seal.  The report rides on
    ``JobResult.sanitizer``; virtual timing is unaffected.

    *faults* takes a declarative :class:`FaultPlan`; a fresh seeded
    injector is built from it per job (per repetition under *stats*).
    A custom injector policy goes one layer down, to
    :func:`repro.simmpi.run_program`'s ``fault_injector``.  *resilience*
    arms the reliable-delivery layer
    (:class:`repro.simmpi.resilience.ResiliencePolicy`): retransmission
    timers, NACK + fresh-nonce retransmission of auth failures, and
    policy-driven escalation; the job-wide
    :class:`~repro.simmpi.resilience.ResilienceReport` rides on
    ``JobResult.resilience``.  *cluster* defaults to the paper's testbed
    (:data:`PAPER_CLUSTER`).

    *engine* (an :class:`EngineOptions` or a spec string like
    ``"coroutines:max_ranks=4096"``) picks the rank runtime, the rank
    ceiling and the handoff checks.  *sanitize* and *engine* left at
    None defer to the process-wide defaults (:func:`job_defaults`).

    *network* accepts a bare fabric name (``"ethernet"``), a fabric
    spec string (``"wan:jitter=10%,loss=2%,seed=7"``), a
    :class:`FabricSpec`, or a prebuilt model.  *stats* (a
    :class:`StatsSpec` or ``"reps=20,confidence=95%"``) runs the job as
    seeded repetitions — each offsets the fabric's noise seed — and
    attaches the samples + bootstrap CI as ``JobResult.stats``.
    """
    engine, stats = _checked_settings(
        trace, faults, resilience, cluster, engine, stats)
    if cluster is None:
        cluster = PAPER_CLUSTER
    if security is None:
        program = workload
    elif inspect.isgeneratorfunction(workload):
        from repro.encmpi.context import EncryptedComm

        # the wrapper must stay a generator function so run_program's
        # runtime="auto" still sees a coroutine-capable workload; it
        # carries the workload's name, which runtime errors quote
        @wraps(workload)
        def program(ctx: RankContext):
            ctx.enc = EncryptedComm(ctx, security)
            return (yield from workload(ctx))

    else:
        from repro.encmpi.context import EncryptedComm

        @wraps(workload)
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
            fault_injector=faults.build() if faults is not None else None,
            sanitize=sanitize,
            resilience=resilience,
            engine=engine,
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

    if stats is None:
        return _execute(network)
    if isinstance(trace, TraceRecorder) and stats.reps > 1:
        raise RuntimeError(
            "one TraceRecorder cannot be shared across repetitions; use "
            "trace=True so each repetition records its own stream"
        )
    from repro.experiments.stats import job_stats, rep_networks

    runs = [_execute(net) for net in rep_networks(network, stats)]
    return replace(
        runs[0],
        stats=job_stats(tuple(r.duration for r in runs), stats),
    )


def sweep(
    workload: Callable[[RankContext], Any],
    *,
    nranks: int = 2,
    networks: Sequence[str | FabricSpec | NetworkModel] = ("ethernet",),
    securities: Iterable[SecurityConfig | None] = (None,),
    cluster: ClusterSpec | None = None,
    placement: str = "block",
    trace: bool | TraceRecorder | None = False,
    faults: FaultPlan | None = None,
    sanitize: bool | None = None,
    resilience: ResiliencePolicy | None = None,
    engine: EngineOptions | str | None = None,
    stats: StatsSpec | str | None = None,
) -> list[SweepPoint]:
    """Run *workload* across the (network × security) grid.

    The grid order is deterministic: networks outermost, securities in
    the order given.  Each cell is an independent :func:`run_job`, and
    every other keyword is forwarded to it unchanged — so a
    :class:`FaultPlan` gives each cell a fresh seeded injector.  The
    settings are validated before any cell runs.  *trace* is forwarded
    to every cell; passing one TraceRecorder instance across cells
    raises — each job needs its own recorder, so use
    ``trace=True`` for sweeps.

    Cells run one after another in the calling process; for work across
    processes, register the grid as an experiment and run it with
    :func:`run_campaign`.

    *networks* entries may be bare names, fabric spec strings, or
    :class:`FabricSpec` values (see :func:`run_job`); cell labels use
    the canonical token.  *stats* arms seeded repetitions per cell.
    """
    engine, stats = _checked_settings(
        trace, faults, resilience, cluster, engine, stats)
    securities = tuple(securities)
    cells = [(net, sec) for net in networks for sec in securities]
    if isinstance(trace, TraceRecorder) and len(cells) > 1:
        raise RuntimeError(
            "one TraceRecorder cannot be shared across sweep cells; "
            "use a fresh recorder per run (trace=True gives each "
            "cell its own)"
        )
    return [
        SweepPoint(
            network=_network_name(net), security=sec,
            result=run_job(workload, nranks=nranks, security=sec,
                           network=net, cluster=cluster, placement=placement,
                           trace=trace, faults=faults, sanitize=sanitize,
                           resilience=resilience, engine=engine, stats=stats),
        )
        for net, sec in cells
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


def run_campaign(
    selection: Sequence[str] | Sequence[Experiment] = ("all",), **options
) -> "CampaignResult":
    """Run a campaign of registry experiments; the facade's batch lane.

    Forwards *selection* and the keyword *options* to
    :func:`repro.experiments.campaign.run_campaign`, which documents
    them.  The executor is imported on first call, so ``import
    repro.api`` loads neither it nor its process pool.
    """
    from repro.experiments.campaign import run_campaign as _run

    return _run(selection, **options)

"""Launching simulated MPI jobs.

:func:`run_program` is the ``mpiexec`` of this package: it spins up a
scheduler, a cluster runtime, and one simulated process per rank, runs
the program on every rank, and returns the per-rank results plus the
job's virtual makespan.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.des.engine import DeadlockError
from repro.des.options import EngineOptions, resolve_engine_options
from repro.des.process import Scheduler, _Sleep, blocking
from repro.models.cpu import PAPER_CLUSTER, ClusterSpec
from repro.models.network import FabricSpec, NetworkModel, resolve_network
from repro.simmpi.comm import CommHandle, Communicator
from repro.simmpi.faults import ChainedInjector
from repro.simmpi.tracing import TraceRecorder, resolve_trace
from repro.simmpi.topology import ClusterRuntime


class RankContext:
    """Everything one rank's program sees."""

    def __init__(self, comm: CommHandle, scheduler: Scheduler,
                 cluster: ClusterRuntime, recorder=None, sanitizer=None,
                 resilience=None):
        self.comm = comm
        self._scheduler = scheduler
        self._cluster = cluster
        #: encrypted communicator, populated by repro.api.run_job when a
        #: SecurityConfig is supplied (None on plain-MPI jobs)
        self.enc = None
        #: TraceRecorder for structured tracing (None unless the job ran
        #: with trace=True or an explicit recorder)
        self.recorder = recorder
        #: repro.analysis.sanitize.Sanitizer when the job runs with
        #: sanitize=True (None otherwise)
        self.sanitizer = sanitizer
        #: repro.simmpi.resilience.ReliabilityManager when the job runs
        #: with a ResiliencePolicy armed (None otherwise); the encrypted
        #: layer uses it to NACK auth failures into retransmissions
        self.resilience = resilience

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def now(self) -> float:
        """Current virtual time in seconds (MPI_Wtime)."""
        return self._scheduler.now

    @property
    def node(self) -> int:
        return self._cluster.node_of(self.rank).index

    def co_compute(self, seconds: float):
        """Spend *seconds* of CPU time (the rank's core is dedicated)."""
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        if seconds:
            yield _Sleep(seconds)

    compute = blocking(co_compute)

    @property
    def node_alloc(self):
        """The rank's node-local :class:`~repro.models.cpu.CoreAllocator`
        (helper cores the cryptmpi pipeline schedules chunk work onto)."""
        return self._cluster.node_of(self.rank).alloc


@dataclass
class SimResult:
    """Outcome of one simulated job."""

    results: list[Any]
    duration: float
    #: per-rank (start, end) virtual times
    spans: list[tuple[float, float]] = field(default_factory=list)
    #: the job's TraceRecorder when traced (None otherwise)
    trace: TraceRecorder | None = None
    #: a repro.analysis.sanitize.SanitizerReport when the job ran with
    #: sanitize=True (the run raises SanitizerError instead of
    #: returning when the report has leaks)
    sanitizer: Any = None
    #: a repro.simmpi.resilience.ResilienceReport when the job ran with
    #: a ResiliencePolicy armed (None otherwise)
    resilience: Any = None


def run_program(
    nranks: int,
    program: Callable[[RankContext], Any],
    *,
    network: str | FabricSpec | NetworkModel = "ethernet",
    cluster: ClusterSpec = PAPER_CLUSTER,
    placement: str = "block",
    trace: bool | TraceRecorder | None = False,
    fault_injector=None,
    sanitize: bool | None = None,
    resilience=None,
    engine: EngineOptions | str | None = None,
) -> SimResult:
    """Run *program* on *nranks* simulated ranks; returns a SimResult.

    The program receives a :class:`RankContext`.  Rank processes hold
    one core each for their lifetime (the paper never oversubscribes).

    ``trace=True`` — or a :class:`repro.simmpi.tracing.TraceRecorder`
    instance — records the full structured event stream into
    ``SimResult.trace``; its ``.comm`` and per-rank counters are views
    over it.  Any other value than a bool, None or a recorder raises
    :class:`TypeError` before any rank runs.  ``fault_injector`` (a
    :class:`repro.simmpi.faults.FaultInjector`) lets an adversary
    tamper with deliveries.

    ``sanitize`` arms the runtime sanitizer
    (:mod:`repro.analysis.sanitize`): deadlocks get a wait-for-cycle
    diagnosis (:class:`~repro.analysis.sanitize.DeadlockDiagnosis`),
    leaked requests fail the job
    (:class:`~repro.analysis.sanitize.SanitizerError`), and AEAD nonce
    reuse raises regardless of backend.  ``None`` (the default) defers
    to the process-wide default (:func:`repro.defaults.job_defaults`,
    which campaign ``--sanitize`` enters).
    Sanitizing never changes virtual timing or results.

    ``resilience`` (a :class:`repro.simmpi.resilience.ResiliencePolicy`)
    arms the reliable-delivery layer: per-envelope retransmission
    timers with deterministic backoff, NACK+fresh-nonce retransmission
    of auth failures, and policy-driven escalation.  Unset, the
    transport behaves byte-identically to before.

    ``engine`` (an :class:`repro.des.options.EngineOptions`, a spec
    string for :func:`repro.des.options.parse_engine_options`, or None
    for the process default of :mod:`repro.defaults`) picks the rank
    runtime: under
    ``"coroutines"`` generator programs are stepped directly in the
    engine context (no thread handoffs, so a job can hold 4096
    ranks); ``"threads"`` runs every rank on
    its own OS thread (what plain blocking functions need); ``"auto"``
    (default) chooses coroutines exactly when *program* is a generator
    function.  Both runtimes produce byte-identical schedules.
    """
    from repro.analysis.sanitize import (
        Sanitizer,
        SanitizerError,
        resolve_sanitize,
    )

    opts = resolve_engine_options(engine)
    if nranks > opts.max_ranks:
        raise ValueError(
            f"nranks={nranks} exceeds EngineOptions.max_ranks="
            f"{opts.max_ranks}; raise max_ranks if this is intentional"
        )
    is_gen_program = inspect.isgeneratorfunction(program)
    if opts.runtime == "coroutines" and not is_gen_program:
        raise TypeError(
            f"EngineOptions(runtime='coroutines') needs a generator rank "
            f"program, but {getattr(program, '__name__', program)!r} is a "
            "plain function; use runtime='threads' (or 'auto') for "
            "blocking programs"
        )
    mode = (
        "coroutines"
        if opts.runtime == "coroutines"
        or (opts.runtime == "auto" and is_gen_program)
        else "threads"
    )
    fabric, net = resolve_network(network)
    if fabric is not None and fabric.loss:
        # A lossy fabric compiles to the existing fault machinery: its
        # seeded iid-drop plan chains *in front of* any explicit
        # injector (the wire loses the message before an adversary
        # could touch it).  Pair loss with a resilience policy or the
        # job deadlocks, exactly as with an explicit drop plan.
        loss_injector = fabric.loss_plan().build()
        if fault_injector is None:
            fault_injector = loss_injector
        else:
            fault_injector = ChainedInjector((loss_injector, fault_injector))
    scheduler = Scheduler(runtime=mode, handoff_check=opts.handoff_check)
    recorder = resolve_trace(trace)
    runtime = ClusterRuntime(scheduler, cluster, net, nranks, placement,
                             recorder)
    if recorder is not None:
        recorder.attach(scheduler)
        recorder.emit("engine", "job_start", -1, nranks=nranks,
                      network=fabric.token() if fabric is not None
                      else net.name,
                      placement=placement)
    sanitizer = None
    if resolve_sanitize(sanitize):
        sanitizer = Sanitizer(nranks,
                              fault_injection=fault_injector is not None)
    communicator = Communicator(scheduler, runtime, recorder, sanitizer)
    communicator.transport.fault_injector = fault_injector
    manager = None
    if resilience is not None:
        from repro.simmpi.resilience import ReliabilityManager

        manager = ReliabilityManager(scheduler, communicator.transport,
                                     resilience, recorder)
        communicator.transport.resilience = manager

    results: list[Any] = [None] * nranks
    spans: list[tuple[float, float]] = [(0.0, 0.0)] * nranks

    def rank_main(rank: int):
        node = runtime.node_of(rank)
        yield from node.cores.co_acquire()
        start = scheduler.now
        if recorder is not None:
            recorder.emit("engine", "proc_start", rank,
                          node=runtime.node_of(rank).index)
        ctx = RankContext(communicator.handle(rank), scheduler, runtime,
                          recorder, sanitizer, manager)
        try:
            if is_gen_program:
                results[rank] = yield from program(ctx)
            else:
                results[rank] = program(ctx)
        finally:
            spans[rank] = (start, scheduler.now)
            if recorder is not None:
                recorder.emit("engine", "proc_end", rank)
            node.cores.release()

    for r in range(nranks):
        scheduler.spawn(rank_main, r, name=f"rank{r}")
    try:
        duration = scheduler.run()
    except DeadlockError as err:
        if sanitizer is not None:
            raise sanitizer.diagnose(scheduler) from err
        raise
    finally:
        if manager is not None:
            manager.drained()
    if recorder is not None:
        recorder.emit("engine", "job_end", -1, duration=duration)
    report = None
    if sanitizer is not None:
        report = sanitizer.finalize(communicator.transport.engines)
        if not report.ok:
            raise SanitizerError(report)
    return SimResult(
        results=results, duration=duration, spans=spans,
        trace=recorder,
        sanitizer=report,
        resilience=manager.report() if manager is not None else None,
    )

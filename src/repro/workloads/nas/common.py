"""NAS proxy infrastructure: skeleton spec, auto-calibration, runner.

A skeleton is a generator rank program, ``skeleton(ctx)``, that
performs one iteration's communication through
``comm = ctx.enc or ctx.comm`` — the convention of
:func:`repro.api.run_job` workloads: ``ctx.enc`` is the rank's
:class:`~repro.encmpi.context.EncryptedComm` on encrypted runs and None
on the baseline.  Its allreduces go through :func:`co_allreduce_bytes`,
which keeps them on the plain wire and charges the per-hop crypto on
the rank's core.  Every skeleton therefore runs on either engine
runtime, with identical virtual times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.encmpi.plan import modeled_plan, refuse_modeled_corruption
from repro.models.cpu import PAPER_CLUSTER, ClusterSpec
from repro.models.network import FabricSpec
from repro.simmpi import RankContext, run_program
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy

#: Paper Table IV / VIII unencrypted totals (seconds): calibration
#: inputs for the compute model (class C, 64 ranks / 8 nodes).
PAPER_BASELINE_SECONDS = {
    "ethernet": {
        "cg": 7.01, "ft": 12.04, "mg": 2.55, "lu": 18.04,
        "bt": 22.83, "sp": 21.99, "is": 4.06,
    },
    "infiniband": {
        "cg": 6.55, "ft": 10.00, "mg": 3.59, "lu": 18.36,
        "bt": 24.56, "sp": 24.20, "is": 3.04,
    },
}

#: EP is not in the paper's tables (it barely communicates); a nominal
#: class C / 64-rank runtime for this Xeon generation so paper-scale EP
#: runs report a meaningful ~0% overhead instead of a 0-second total.
EP_NOMINAL_SECONDS = 13.0


def _first(a: bytes, _b: bytes) -> bytes:
    """The skeletons' allreduce combiner: combining is free next to the
    wire, and the content is irrelevant to timing."""
    return a


def co_allreduce_bytes(ctx: RankContext, nbytes: int):
    """A numeric allreduce of *nbytes* (content irrelevant to timing).

    Encrypted allreduce is not one of §IV's routines — the paper's
    NAS binaries route it through the encrypted point-to-point
    layer, which encrypts/decrypts each hop of the recursive
    doubling.  We run the plain allreduce for the wire time and, when
    ``ctx.enc`` is set, charge per-hop crypto on this rank's core,
    matching that cost.
    """
    enc = ctx.enc
    if enc is not None:
        hops = max(1, (ctx.size - 1).bit_length())
        per_hop = enc.profile.encdec_time(nbytes, enc.crypto_slowdown)
        yield from ctx.co_compute(hops * per_hop)
    yield from ctx.comm.co_allreduce(b"\x00" * nbytes, _first)


@dataclass(frozen=True)
class NasBenchmark:
    """One NAS proxy: name, class-C iteration count, and the skeleton.

    ``skeleton(ctx)`` is a generator rank program that performs
    exactly one iteration's communication through
    ``ctx.enc or ctx.comm``.  ``payload_kind`` selects the crypto
    slowdown class:
    ``"contiguous"`` payloads (vectors, alltoall blocks) encrypt at
    cache-cold speed, ``"strided"`` ones (stencil boundary faces) pay
    the additional pack/unpack penalty — see
    calibration.NAS_COLD_CACHE_FACTOR / NAS_STRIDED_PACK_FACTOR.
    """

    name: str
    iterations: int
    skeleton: Callable[[RankContext], Generator]
    description: str
    payload_kind: str = "contiguous"

    def crypto_slowdown(self) -> float:
        from repro.models.calibration import (
            NAS_COLD_CACHE_FACTOR,
            NAS_STRIDED_PACK_FACTOR,
        )

        if self.payload_kind == "strided":
            return NAS_STRIDED_PACK_FACTOR
        if self.payload_kind == "contiguous":
            return NAS_COLD_CACHE_FACTOR
        raise ValueError(f"unknown payload kind {self.payload_kind!r}")


_REGISTRY: dict[str, NasBenchmark] = {}


def register(bench: NasBenchmark) -> NasBenchmark:
    if bench.name in _REGISTRY:
        raise ValueError(f"duplicate NAS benchmark {bench.name!r}")
    _REGISTRY[bench.name] = bench
    return bench


def get_benchmark(name: str) -> NasBenchmark:
    from repro.workloads.nas import bt, cg, ep, ft, is_, lu, mg, sp  # noqa: F401

    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown NAS benchmark {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def NAS_BENCHMARKS() -> list[str]:
    from repro.workloads.nas import bt, cg, ep, ft, is_, lu, mg, sp  # noqa: F401

    return sorted(_REGISTRY)


@dataclass(frozen=True)
class NasResult:
    benchmark: str
    network: str
    library: str | None
    total_seconds: float
    comm_seconds: float
    compute_seconds: float
    iterations: int


_comm_time_cache: dict[tuple, float] = {}


def _simulate_comm_time(
    name: str,
    network: str | FabricSpec,
    nranks: int,
    cluster: ClusterSpec,
    plan: CryptoPlan | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> float:
    """Virtual seconds for one iteration of pure communication; *plan*
    encrypts every rank's traffic (None = the plain baseline)."""
    bench = get_benchmark(name)

    def program(ctx):
        if plan is not None:
            ctx.enc = EncryptedComm(
                ctx, SecurityConfig(crypto=plan),
                crypto_slowdown=bench.crypto_slowdown(),
            )
        yield from ctx.comm.co_barrier()
        t0 = ctx.now
        yield from bench.skeleton(ctx)
        yield from ctx.comm.co_barrier()
        return ctx.now - t0

    result = run_program(
        nranks, program, network=network, cluster=cluster,
        # fresh seeded injector per simulation: the plan is the value,
        # the injector (RNG stream + ledger) is per-run state
        fault_injector=faults.build() if faults is not None else None,
        resilience=resilience,
    )
    return max(result.results)


def _comm_time(
    name: str,
    fabric: FabricSpec,
    nranks: int,
    cluster: ClusterSpec,
    plan: CryptoPlan | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> float:
    """Memoized :func:`_simulate_comm_time`: every cell, the clean
    baseline included, has one key shape, so a baseline cell and the
    calibration run of an encrypted cell share one simulation."""
    key = (name, fabric.token(), nranks, cluster, plan, faults, resilience)
    if key not in _comm_time_cache:
        _comm_time_cache[key] = _simulate_comm_time(
            name, fabric, nranks, cluster, plan, faults, resilience,
        )
    return _comm_time_cache[key]


def run_nas(
    name: str,
    *,
    network: str | FabricSpec = "ethernet",
    library: str | None = None,
    nranks: int = 64,
    cluster: ClusterSpec = PAPER_CLUSTER,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
    crypto: CryptoPlan | None = None,
) -> NasResult:
    """Predicted class-C total time for one benchmark configuration.

    The unencrypted (library=None) total is calibrated to the paper's
    baseline by construction; encrypted totals are predictions.

    *faults* (a seeded :class:`FaultPlan`) injects deliver-time faults
    into the communication simulation; *resilience* (a
    :class:`ResiliencePolicy`) arms ack/retransmit so the proxy still
    completes on a lossy fabric.  Both are frozen values and so part of
    the memoization key; the fault-free compute calibration below is
    always taken from a clean baseline run.

    *crypto* (a :class:`CryptoPlan`) sets the encrypted runs'
    pipelining discipline; ``None`` adopts the process-wide default
    (campaign ``--crypto``).  The *effective* plan — never the mutable
    default — is part of the memoization key, so flipping the default
    mid-process can't serve stale times.
    """
    bench = get_benchmark(name)
    refuse_modeled_corruption(library, faults)
    # Canonical fabric spec: bare names coerce cleanly, and the memo
    # keys use the token so noisy fabrics never collide with clean ones
    # (or with differently-seeded variants of themselves).
    fabric = FabricSpec.coerce(network)
    # The effective plan, resolved up front (baseline cells carry no
    # crypto at all, so they memoize independently of any plan).
    plan = modeled_plan(library, crypto)
    comm_total = _comm_time(
        name, fabric, nranks, cluster, plan, faults, resilience,
    ) * bench.iterations

    # Compute budget: calibrated from the *baseline* run at the paper's
    # scale; reused unchanged for encrypted runs (encryption does not
    # change the numerical work).
    base_comm_total = _comm_time(name, fabric, nranks, cluster) * bench.iterations
    # The paper only publishes baselines for its two fabrics; hostile
    # fabrics fall through to the nominal-compute branch below.
    paper_total = PAPER_BASELINE_SECONDS.get(fabric.base, {}).get(name.lower())
    if paper_total is None and name.lower() == "ep":
        paper_total = EP_NOMINAL_SECONDS
    if paper_total is not None and nranks == 64:
        compute_total = max(0.0, paper_total - base_comm_total)
    else:
        # Off-paper configurations (tests, scalability sweeps): charge a
        # nominal compute equal to the baseline communication time.
        compute_total = base_comm_total
    return NasResult(
        benchmark=name.lower(),
        network=fabric.token(),
        library=library,
        total_seconds=compute_total + comm_total,
        comm_seconds=comm_total,
        compute_seconds=compute_total,
        iterations=bench.iterations,
    )

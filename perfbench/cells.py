"""The benchmark's workloads: seeded cells, how to run one, and its oracle.

A *cell* is a bundle of simulated jobs drawn from one workload's mix;
the benchmark runs cells one after another in a single process (a
closed loop with one client).  Cells cycle through a fixed number of
*kinds* (``cell index % kinds``) so every run holds the same share of
each kind, and each cell pairs shapes so that its host cost stays close
to its siblings' (an antithetic pair count, plain and encrypted runs of
one shape): percentiles of the per-cell time then have no cost cliff.

Every job passes its crypto plan, fabric, faults and resilience policy
explicitly, through the public entry points ``repro.api.run_job`` and
``repro.workloads.{pingpong,multipair,osu_collectives,mtlatency}``.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

#: seeded cells per workload; a run cycles through them
CELLS = 256

#: the seed whose per-cell outcome digests are pinned in digests.json
DEFAULT_SEED = 1
#: a second seed, never used while tuning, for held-out checks
HELD_OUT_SEED = 7919

FABRICS = ("ethernet", "infiniband")
LIBRARIES = ("openssl", "boringssl", "libsodium", "cryptopp")
AEAD_BACKENDS = ("pure", "chacha", "openssl")

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class Job:
    """One simulated job: an entry point name and its keyword arguments."""

    entry: str
    args: tuple  # sorted (key, value) pairs, so a Job is hashable and printable

    def kwargs(self) -> dict:
        return dict(self.args)


def job(entry: str, **kwargs) -> Job:
    return Job(entry, tuple(sorted(kwargs.items())))


@dataclass(frozen=True)
class Cell:
    index: int
    kind: str
    jobs: tuple[Job, ...]
    #: (plain job index, encrypted job index) pairs of one shape whose
    #: encrypted latency must not undercut the plain one
    latency_pairs: tuple[tuple[int, int], ...] = ()
    #: (plain, encrypted) throughput pairs: encrypted must not exceed plain
    goodput_pairs: tuple[tuple[int, int], ...] = ()


@dataclass
class Workload:
    """One traffic mix (its rationale is recorded in BENCHMARK.json)."""

    name: str
    kinds: tuple[str, ...]
    make: object  # (rng, index, kind) -> Cell
    #: cells in the traced pass (fixed, so per-layer counts repeat)
    trace_cells: int
    #: layers whose counters must read exactly zero here (bypassed)
    zeros: tuple[str, ...]
    #: counters that must be positive here (the layers it loads)
    loads: tuple[str, ...] = ()

    def cells(self, seed: int) -> list[Cell]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make(rng, i, self.kinds[i % len(self.kinds)])
                for i in range(CELLS)]


def _log_size(rng: random.Random, lo: int, hi: int) -> int:
    """A size drawn log-uniformly from [lo, hi]."""
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _plan(library: str, mode: str = "serial", **geometry):
    from repro.encmpi.plan import CryptoPlan

    return CryptoPlan(library=library, mode=mode, bytework="modeled",
                      **geometry)


# ---------------------------------------------------------------------------
# small_msgs: latency-bound, modeled crypto, serial plans, every wire
# message below FLOW_CUTOFF
# ---------------------------------------------------------------------------

#: collective shape per collective: ranks and post-warm-up iterations,
#: chosen so the three cost about the same host time; allgather's
#: per-rank block stays small because its recursive-doubling rounds pack
#: nranks/2 blocks into one message
SMALL_COLLECTIVES = {
    "bcast": dict(nranks=32, iters=2, max_size=KIB),
    "allgather": dict(nranks=16, iters=3, max_size=96),
    "alltoall": dict(nranks=16, iters=1, max_size=KIB),
}
#: cell kinds: (collective, encrypted?).  Five kinds, each a fifth of
#: the cells, put p50 and p90 in the middle of a kind's cost band
#: rather than on the edge between two.
SMALL_KINDS = ("bcast/plain", "bcast/enc", "allgather/enc", "alltoall/plain",
               "alltoall/enc")


def _small_cell(rng: random.Random, index: int, kind: str) -> Cell:
    fabric = rng.choice(FABRICS)
    library = rng.choice(LIBRARIES)
    plan = _plan(library)
    pp_size = _log_size(rng, 1, KIB)
    mp_size = _log_size(rng, 1, KIB)
    pairs = rng.randint(2, 8)
    mt_size = _log_size(rng, 1, KIB)
    channels = rng.randint(2, 8)
    op, mode = kind.split("/")
    coll = SMALL_COLLECTIVES[op]
    jobs = (
        job("pingpong", size=pp_size, network=fabric, library=None,
            crypto=None, iters=4),
        job("pingpong", size=pp_size, network=fabric, library=library,
            crypto=plan, iters=4),
        job("mtlatency", size=mt_size, channels=channels, network=fabric,
            library=None, crypto=None, iters=4),
        job("mtlatency", size=mt_size, channels=channels, network=fabric,
            library=library, crypto=plan, iters=4),
        job("multipair", size=mp_size, pairs=pairs, network=fabric,
            library=None, crypto=None, window=8, iters=2),
        job("multipair", size=mp_size, pairs=10 - pairs, network=fabric,
            library=library, crypto=plan, window=8, iters=2),
        job("collective", op=op, size=_log_size(rng, 1, coll["max_size"]),
            network=fabric, nranks=coll["nranks"],
            library=library if mode == "enc" else None, iters=coll["iters"]),
    )
    return Cell(index, kind, jobs, latency_pairs=((0, 1), (2, 3)))


# ---------------------------------------------------------------------------
# bulk_serial: bandwidth-bound multipair and large ping-pong, serial plans
# ---------------------------------------------------------------------------

BULK_SIZES = (256 * KIB, 512 * KIB, MIB, 2 * MIB, 4 * MIB)


def _bulk_serial_cell(rng: random.Random, index: int, kind: str) -> Cell:
    fabric = rng.choice(FABRICS)
    plan = _plan(rng.choice(LIBRARIES))
    library = plan.library
    pairs = rng.randint(1, 8)
    jobs = []
    for size, p in ((rng.choice(BULK_SIZES), pairs),
                    (rng.choice(BULK_SIZES), 9 - pairs)):
        for lib, crypto in ((None, None), (library, plan)):
            jobs.append(job("multipair", size=size, pairs=p, network=fabric,
                            library=lib, crypto=crypto, window=4, iters=1))
    pp_size = rng.choice(BULK_SIZES)
    for lib, crypto in ((None, None), (library, plan)):
        jobs.append(job("pingpong", size=pp_size, network=fabric,
                        library=lib, crypto=crypto, iters=2))
    return Cell(index, kind, tuple(jobs), latency_pairs=((4, 5),),
                goodput_pairs=((0, 1), (2, 3)))


# ---------------------------------------------------------------------------
# bulk_cryptmpi: the same traffic shapes, chunk-pipelined on helper cores
# ---------------------------------------------------------------------------

CRYPTMPI_SIZES = (256 * KIB, 512 * KIB, MIB)
#: chunks per message: host cost grows with chunks, not bytes (modeled
#: crypto), so a fixed count keeps every size at the same cost
CRYPTMPI_CHUNKS = 4


def _bulk_cryptmpi_cell(rng: random.Random, index: int, kind: str) -> Cell:
    fabric = rng.choice(FABRICS)
    library = rng.choice(LIBRARIES)
    size = rng.choice(CRYPTMPI_SIZES)
    plan = _plan(library, "cryptmpi", chunk_bytes=size // CRYPTMPI_CHUNKS,
                 helper_cores=rng.randint(1, 3))
    pairs = rng.randint(1, 4)
    jobs = [
        job("multipair", size=size, pairs=p, network=fabric, library=library,
            crypto=plan, window=2, iters=1)
        for p in (pairs, 5 - pairs)
    ]
    for lib, crypto in ((None, None), (library, plan)):
        jobs.append(job("pingpong", size=size, network=fabric, library=lib,
                        crypto=crypto, iters=2))
    return Cell(index, kind, tuple(jobs), latency_pairs=((2, 3),))


# ---------------------------------------------------------------------------
# secure_real: real AEAD byte work on a lossy, corrupting fabric
# ---------------------------------------------------------------------------

#: host cost of one message (seal, wire, open) per AEAD backend, in ms:
#: (fixed, per payload byte), fitted on a ring of two ranks
SECURE_COST_MS = {
    "pure": (0.34, 0.0035),
    "chacha": (0.45, 0.0052),
    "openssl": (0.12, 0.000014),
}
#: host-time target of one cell (ms); sets each cell's rounds and size
SECURE_TARGET_MS = 80.0
SECURE_PATTERNS = ("ring", "pingpong", "alltoall")
#: cell kinds: pattern/backend, so backends rotate cell by cell
SECURE_KINDS = tuple(f"{p}/{b}" for b in AEAD_BACKENDS for p in SECURE_PATTERNS)


def _euler_circuit(n: int) -> list[tuple[int, int]]:
    """Every ordered pair of *n* ranks once, as one closed walk
    (Hierholzer's algorithm on the complete directed graph)."""
    out = {v: [u for u in range(n) if u != v] for v in range(n)}
    stack, walk = [0], []
    while stack:
        v = stack[-1]
        if out[v]:
            stack.append(out[v].pop())
        else:
            walk.append(stack.pop())
    walk.reverse()
    return list(zip(walk, walk[1:]))


def _secure_edges(pattern: str, n: int) -> list[tuple[int, int]]:
    """The (sender, receiver) messages of one round, in order.

    Each pattern is made of closed walks in which a message's receiver
    sends the walk's next message, so one message per walk is in flight
    and its receiver is already blocked waiting for it.  That keeps the
    workload clear of a race in the simulator: a corrupted copy left
    unread while its sender's timer fires is followed by a timeout
    resend of the same frame, which the replay window (updated before
    the tag is checked) rejects, and the re-posted receive then drops
    the message it was bound to.
    """
    if pattern == "pingpong":
        return [e for a in range(0, n, 2) for e in ((a, a + 1), (a + 1, a))]
    if pattern == "ring":
        return [(r, (r + 1) % n) for r in range(n)]
    return _euler_circuit(n)  # alltoall: every ordered pair once


def _secure_cell(rng: random.Random, index: int, kind: str) -> Cell:
    pattern, backend = kind.split("/")
    nranks = rng.choice((2, 4)) if pattern == "pingpong" else rng.randint(2, 4)
    msgs = len(_secure_edges(pattern, nranks))
    fixed, per_byte = SECURE_COST_MS[backend]

    def size_for(rounds: int) -> int:
        """The message size that puts the cell on its host-time target."""
        per_msg = SECURE_TARGET_MS / (msgs * rounds)
        return min(16 * KIB, max(64, int((per_msg - fixed) / per_byte)))

    drawn = _log_size(rng, 64, size_for(1))
    rounds = max(1, round(SECURE_TARGET_MS / (msgs * (fixed + per_byte * drawn))))
    job_ = job(
        "secure", backend=backend, pattern=pattern, nranks=nranks,
        size=size_for(rounds), rounds=rounds,
        network=rng.choice(FABRICS),
        cluster=rng.choice(("2x2", "4x1")),
        library=rng.choice(LIBRARIES),
        drop=0.02, corrupt=0.03, fault_seed=rng.getrandbits(32),
        payload_seed=rng.getrandbits(32),
    )
    return Cell(index, kind, (job_,))


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small_msgs",
            kinds=SMALL_KINDS,
            make=_small_cell,
            trace_cells=20,
            zeros=("des.flows.transfers", "crypto.aead.mb",
                   "encmpi.pipeline.chunks", "models.cpu.submits",
                   "simmpi.resilience.retransmits"),
            loads=("simmpi.collectives.calls", "encmpi.context.seals",
                   "simmpi.matching.posts", "des.process.wakes"),
        ),
        Workload(
            name="bulk_serial",
            kinds=("bulk",),
            make=_bulk_serial_cell,
            trace_cells=60,
            zeros=("crypto.aead.mb", "encmpi.pipeline.chunks",
                   "models.cpu.submits", "simmpi.resilience.retransmits",
                   "simmpi.collectives.calls"),
            loads=("des.flows.transfers", "des.flows.refills",
                   "encmpi.context.seals"),
        ),
        Workload(
            name="bulk_cryptmpi",
            kinds=("bulk",),
            make=_bulk_cryptmpi_cell,
            trace_cells=48,
            zeros=("crypto.aead.mb", "simmpi.resilience.retransmits",
                   "simmpi.collectives.calls"),
            loads=("encmpi.pipeline.chunks", "models.cpu.submits",
                   "des.flows.transfers"),
        ),
        Workload(
            name="secure_real",
            kinds=SECURE_KINDS,
            make=_secure_cell,
            trace_cells=45,
            zeros=("encmpi.pipeline.chunks", "models.cpu.submits"),
            loads=("crypto.aead.mb", "simmpi.resilience.retransmits",
                   "simmpi.resilience.nacks", "encmpi.context.auth_failures"),
        ),
    )
}


# ---------------------------------------------------------------------------
# running a cell
# ---------------------------------------------------------------------------


class OracleError(AssertionError):
    """A cell's outputs broke an invariant that holds for every seed."""


def _payload(seed: int, src: int, dst: int, k: int, size: int) -> bytes:
    return random.Random(f"{seed}:{src}:{dst}:{k}").randbytes(size)


def _secure_program(pattern: str, rounds: int, size: int, seed: int):
    """A generator rank program over ``ctx.enc`` point-to-point calls.

    Every received payload is compared with what its sender sent; the
    rank returns how many payloads it checked and a digest of them.
    """
    tag = 7

    def program(ctx):
        enc, rank = ctx.enc, ctx.rank
        edges = [e for e in _secure_edges(pattern, ctx.size) if rank in e]
        digest = hashlib.sha256()
        checked = 0
        for k in range(rounds):
            for src, dst in edges:
                if src == rank:
                    req = yield from enc.co_isend(
                        _payload(seed, src, dst, k, size), dst, tag)
                    yield from req.co_wait()
                    continue
                got = yield from enc.irecv(src, tag).co_wait()
                if got != _payload(seed, src, dst, k, size):
                    raise OracleError(
                        f"rank {rank}: round {k} payload from {src} differs")
                digest.update(got)
                checked += 1
        return checked, digest.hexdigest()[:16]

    return program


def _run_secure(backend, pattern, nranks, size, rounds, network, cluster,
                library, drop, corrupt, fault_seed, payload_seed):
    from repro import api

    security = api.SecurityConfig(
        library=library,
        nonce_strategy="counter",
        bind_header=True,
        backend=backend,
        replay_window=64,
        crypto=api.CryptoPlan(library=library, mode="serial",
                              bytework="real"),
    )
    result = api.run_job(
        _secure_program(pattern, rounds, size, payload_seed),
        nranks=nranks,
        security=security,
        network=api.parse_network_spec(network),
        cluster=api.parse_cluster_spec(cluster),
        placement="block",
        trace=False,
        faults=api.FaultPlan(drop=drop, corrupt=corrupt, seed=fault_seed,
                             corrupt_bit=8 * 12 + 3),
        sanitize=False,
        resilience=api.ResiliencePolicy(max_retries=8, timeout=2e-4,
                                        backoff="exponential",
                                        escalation="fail",
                                        backoff_factor=2.0),
        engine=api.EngineOptions(runtime="coroutines"),
    )
    report = result.resilience
    if report is None or report.gave_up or report.fallbacks:
        raise OracleError(f"resilience gave up or fell back: {report}")
    expected = rounds * (nranks - 1 if pattern == "alltoall" else 1)
    for rank, (checked, _digest) in enumerate(result.results):
        if checked != expected:
            raise OracleError(
                f"rank {rank} checked {checked} payloads, expected {expected}")
    return (result.duration, result.results, report.retransmits,
            report.nacks)


def run_one(j: Job):
    """Run one job; returns its virtual outcome."""
    kw = j.kwargs()
    if j.entry == "pingpong":
        from repro.workloads.pingpong import pingpong_oneway_time

        return pingpong_oneway_time(kw.pop("size"), **kw)
    if j.entry == "multipair":
        from repro.workloads.multipair import multipair_aggregate_throughput

        return multipair_aggregate_throughput(kw.pop("size"), kw.pop("pairs"),
                                              **kw)
    if j.entry == "mtlatency":
        from repro.workloads.mtlatency import mtlatency_round_time

        return mtlatency_round_time(kw.pop("size"), **kw)
    if j.entry == "collective":
        from repro.models.cpu import PAPER_CLUSTER
        from repro.workloads.osu_collectives import collective_latency

        return collective_latency(kw.pop("op"), kw.pop("size"),
                                  cluster=PAPER_CLUSTER, **kw)
    if j.entry == "secure":
        return _run_secure(**kw)
    raise ValueError(f"unknown job entry {j.entry!r}")


def run_cell(cell: Cell) -> list:
    """Run every job of *cell* in order; returns their outcomes."""
    return [run_one(j) for j in cell.jobs]


def check_cell(cell: Cell, outcomes: list) -> None:
    """The seed-independent oracle; raises :class:`OracleError`."""
    for j, out in zip(cell.jobs, outcomes):
        value = out[0] if isinstance(out, tuple) else out
        if not (isinstance(value, float) and value > 0 and math.isfinite(value)):
            raise OracleError(f"{j.entry} returned {value!r}, expected > 0")
    for plain, enc in cell.latency_pairs:
        if outcomes[enc] < outcomes[plain]:
            raise OracleError(
                f"encrypted latency {outcomes[enc]!r} < plain "
                f"{outcomes[plain]!r} for {cell.jobs[plain]}")
    for plain, enc in cell.goodput_pairs:
        if outcomes[enc] > outcomes[plain]:
            raise OracleError(
                f"encrypted throughput {outcomes[enc]!r} > plain "
                f"{outcomes[plain]!r} for {cell.jobs[plain]}")


def digest(outcomes: list) -> str:
    """Digest of a cell's virtual outcome (makespans and per-rank results;
    floats by their exact bits)."""
    def canon(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        return x

    return hashlib.sha256(repr(canon(outcomes)).encode()).hexdigest()[:16]

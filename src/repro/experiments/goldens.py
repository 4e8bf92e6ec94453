"""Golden-trace harness: canonical runs with pinned event-stream digests.

The simulator's strict handoff discipline makes every run's structured
event stream deterministic — same program, same virtual timestamps, same
event order, run after run.  This module pins that property: a small set
of canonical workloads is traced, each trace is reduced to the SHA-256 of
its canonical serialization (:meth:`TraceRecorder.digest`), and the
digests are committed as a fixture (``tests/goldens/golden_traces.json``).

``tests/simmpi/test_golden_traces.py`` asserts three things:

1. re-running a golden reproduces the committed digest (no accidental
   nondeterminism crept into the engine, transport, or crypto layers);
2. two back-to-back runs in one process agree byte-for-byte (no hidden
   global state leaks between jobs);
3. the digest is identical across AEAD backends (pure / chacha /
   openssl) — the byte-work implementation is a host property and must
   not leak into simulation outcomes.

Golden runs therefore use ``nonce_strategy="counter"`` (random nonces
are the one intentionally nondeterministic input) and never embed
module-global identifiers (envelope sequence numbers, communicator ids)
in events.

Regenerate the fixture after an *intentional* behavior change with
``make trace-goldens`` and review the diff: the committed digest is a
statement that the simulation's observable behavior changed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.simmpi.tracing import TraceRecorder

SCHEMA = 1

#: repo-relative location of the committed fixture
FIXTURE_PATH = "tests/goldens/golden_traces.json"

#: tag of the encrypted pair exchange in :func:`enc_multipair_program`
#: (pinned: it is part of the committed golden digests)
TAG_PAIR = 3


# ---------------------------------------------------------------------------
# canonical workloads
# ---------------------------------------------------------------------------


def pingpong_program(size: int, iterations: int = 3, tag: int = 7):
    """Rank 0 and 1 exchange *size*-byte messages *iterations* times."""

    def program(ctx):
        peer = 1 - ctx.rank
        data = bytes(size)
        for _ in range(iterations):
            if ctx.rank == 0:
                yield from ctx.comm.co_send(data, peer, tag=tag)
                yield from ctx.comm.co_recv(peer, tag)
            else:
                yield from ctx.comm.co_recv(peer, tag)
                yield from ctx.comm.co_send(data, peer, tag=tag)
        return iterations

    return program


def bcast_program(size: int, root: int = 0):
    """One *size*-byte broadcast followed by a barrier."""

    def program(ctx):
        data = bytes(size) if ctx.rank == root else None
        out = yield from ctx.comm.co_bcast(data, root, nbytes=size)
        yield from ctx.comm.co_barrier()
        return len(out)

    return program


def enc_multipair_program(size: int):
    """Encrypted pair exchange + plain barrier + encrypted allgather.

    Touches every traced layer: engine (process lifecycle), transport
    (eager/shm paths), collective (barrier, allgather), and AEAD
    (seal/open on the pair messages and the allgather blocks).
    """

    def program(ctx):
        enc = ctx.enc
        peer = (ctx.rank + ctx.size // 2) % ctx.size
        data = bytes(size)
        rreq = enc.irecv(peer, tag=TAG_PAIR)
        sreq = yield from enc.co_isend(data, peer, tag=TAG_PAIR)
        got = yield from rreq.co_wait()
        yield from sreq.co_wait()
        yield from ctx.comm.co_barrier()
        blocks = yield from enc.co_allgather(bytes(size // 4))
        return len(got) + sum(len(b) for b in blocks)

    return program


@dataclass(frozen=True)
class GoldenSpec:
    """One canonical run: a program factory plus pinned job parameters."""

    name: str
    description: str
    nranks: int
    size: int
    build: Callable[[int], Callable]
    encrypted: bool = False
    network: str = "ethernet"


GOLDEN_RUNS: dict[str, GoldenSpec] = {
    spec.name: spec
    for spec in (
        GoldenSpec(
            name="pingpong",
            description="2-rank 4 KiB ping-pong, plain MPI",
            nranks=2,
            size=4096,
            build=pingpong_program,
        ),
        GoldenSpec(
            name="bcast",
            description="8-rank 64 KiB broadcast + barrier, plain MPI",
            nranks=8,
            size=65536,
            build=bcast_program,
        ),
        GoldenSpec(
            name="enc_multipair",
            description=(
                "4-rank encrypted pair exchange + barrier + encrypted "
                "allgather (counter nonces, real crypto)"
            ),
            nranks=4,
            size=1024,
            build=enc_multipair_program,
            encrypted=True,
        ),
    )
}


def run_golden(name: str, backend: str = "auto") -> TraceRecorder:
    """Execute one golden run and return its trace recorder.

    *backend* selects the AEAD byte-work implementation for encrypted
    goldens; the digest is backend-independent by construction.
    """
    from repro import api

    spec = GOLDEN_RUNS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown golden run {name!r}; choose from {sorted(GOLDEN_RUNS)}"
        )
    security = None
    if spec.encrypted:
        # explicit serial plan: golden digests must not move under a
        # process-wide default plan (campaign --crypto)
        security = api.SecurityConfig(
            nonce_strategy="counter", backend=backend,
            crypto=api.CryptoPlan(bytework="real"),
        )
    result = api.run_job(
        spec.build(spec.size),
        nranks=spec.nranks,
        security=security,
        network=spec.network,
        trace=True,
    )
    return result.trace


def golden_summary(name: str, backend: str = "auto") -> dict:
    """The fixture record for one run: digest + shape metadata."""
    rec = run_golden(name, backend=backend)
    return {
        "digest": rec.digest(),
        "events": len(rec.events),
        "description": GOLDEN_RUNS[name].description,
    }


# ---------------------------------------------------------------------------
# fixture I/O
# ---------------------------------------------------------------------------


def generate_fixture() -> dict:
    """Run every golden and assemble the fixture document."""
    return {
        "schema": SCHEMA,
        "runs": {name: golden_summary(name) for name in sorted(GOLDEN_RUNS)},
    }


def write_fixture(path: str = FIXTURE_PATH) -> dict:
    doc = generate_fixture()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


def load_fixture(path: str = FIXTURE_PATH) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"fixture {path} has schema {doc.get('schema')!r}, expected {SCHEMA}"
        )
    return doc

"""Alltoall's virtual times: ``alltoallv`` is ``alltoall``, and a few
cells of both selection paths are pinned bit for bit.

The registry simulates each cell once: ``extras`` has no alltoallv
columns because they would repeat table3's (and table7's) alltoall
cells.  The identity test below is what makes that true.
"""

import pytest

from repro import api
from repro.defaults import job_defaults
from repro.models.cpu import PAPER_CLUSTER, parse_cluster_spec
from repro.simmpi.collectives.alltoall import ALLTOALL_PAIRWISE_THRESHOLD
from repro.util.units import KiB
from repro.workloads.osu_collectives import collective_latency

TWO_NODES = parse_cluster_spec("2x8")
EIGHT_NODES = parse_cluster_spec("8x4")

#: per-pair sizes on both sides of the batched/pairwise boundary
IDENTITY_SIZES = (1, 16 * KiB, ALLTOALL_PAIRWISE_THRESHOLD,
                  ALLTOALL_PAIRWISE_THRESHOLD + 1, 64 * KiB)

#: (network, nranks, cluster, per-pair size, library) ->
#: collective_latency("alltoall", ..., iters=1) as float.hex.  The
#: 64-rank 1 B cells are table3's 1 B cells (batched path); on 2x8,
#: 16 KiB is batched and 64 KiB pairwise.  The 8x4 16 KiB cells put many
#: rank pairs of one node pair in flight at once, the flow solver's
#: large bundle classes that otherwise only the 64-rank cells of
#: tables 3/7 and figs 8/15 reach.
PIN = {
    ("ethernet", 64, PAPER_CLUSTER, 1, None): "0x1.3ace419dd860bp-12",
    ("ethernet", 64, PAPER_CLUSTER, 1, "boringssl"): "0x1.e02d224d2eef4p-12",
    ("ethernet", 16, TWO_NODES, 16 * KiB, None): "0x1.0b2b912cf2ae6p-10",
    ("ethernet", 16, TWO_NODES, 16 * KiB, "boringssl"): "0x1.479450a21879fp-10",
    ("ethernet", 16, TWO_NODES, 64 * KiB, None): "0x1.0496e202e4064p-8",
    ("ethernet", 16, TWO_NODES, 64 * KiB, "boringssl"): "0x1.53f992f1447a2p-8",
    ("ethernet", 32, EIGHT_NODES, 16 * KiB, None): "0x1.ccd2ec935a669p-10",
    ("infiniband", 32, EIGHT_NODES, 16 * KiB, "boringssl"):
        "0x1.0fdc3b2760fa8p-10",
}


@pytest.mark.parametrize("library", [None, "boringssl"],
                         ids=["plain", "boringssl"])
def test_alltoallv_takes_alltoalls_time(library):
    """``alltoallv`` runs ``alltoall``'s selection, so uniform blocks
    give the same virtual time, bit for bit.

    If this fails because alltoallv got a selection of its own (MPICH
    throttles alltoallv's outstanding requests; see ROADMAP's "Alltoall
    as MPICH 3.2.1 runs it"), its times are no longer table3's and
    table7's: restore the alltoallv columns of ``extras``.
    """
    for size in IDENTITY_SIZES:
        times = [
            collective_latency(op, size, nranks=16, cluster=TWO_NODES,
                               library=library, iters=1)
            for op in ("alltoall", "alltoallv")
        ]
        assert times[0] == times[1], size


@pytest.mark.parametrize("unit", [1 * KiB, 4 * KiB],
                         ids=["batched", "pairwise"])
@pytest.mark.parametrize("library", [None, "boringssl"],
                         ids=["plain", "boringssl"])
def test_unequal_blocks_same_blocks_and_time(library, unit):
    """Blocks of unequal size, plain or sealed: both ops deliver the
    same blocks and take the same virtual time on every rank, and the
    trace names the op the program called."""
    def exchange(op):
        def program(ctx):
            comm = ctx.enc or ctx.comm
            chunks = [bytes([ctx.rank]) * (1 + unit * ((ctx.rank + d) % 16))
                      for d in range(ctx.size)]
            t0 = ctx.now
            got = yield from getattr(comm, f"co_{op}")(chunks)
            return got, ctx.now - t0

        security = api.SecurityConfig(library=library) if library else None
        job = api.run_job(program, nranks=16, cluster=TWO_NODES,
                          security=security, trace=True)
        traced = job.trace.events_in("collective", "coll_begin")
        assert len(traced) == 16
        assert {e.data["op"] for e in traced} == {op}
        return job.results

    results = exchange("alltoall")
    assert exchange("alltoallv") == results
    for rank, (got, _elapsed) in enumerate(results):
        assert got == [bytes([src]) * (1 + unit * ((src + rank) % 16))
                       for src in range(16)]


def test_alltoall_times_pinned_under_the_sanitizer():
    """Both selection paths, plain and sealed, on both fabrics, keep
    their virtual times bit for bit; the sanitizer never moves virtual
    time."""
    got = {}
    with job_defaults(sanitize=True):
        for network, nranks, cluster, size, library in PIN:
            got[network, nranks, cluster, size, library] = collective_latency(
                "alltoall", size, network=network, nranks=nranks,
                cluster=cluster, library=library, iters=1,
            ).hex()
    assert got == PIN

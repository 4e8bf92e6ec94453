"""LU — SSOR wavefront solver, many small pipelined messages (class C).

Class C: a 162^3 grid, 250 iterations.  Ranks tile the x-y plane
(8x8 at p = 64, local 21x21 columns).  Each iteration runs a lower and
an upper triangular sweep: k-planes pipeline through the grid, each
rank receiving thin boundary strips from north/west and forwarding to
south/east.  The real code sends one message per k-plane; we batch
k-planes in blocks (preserving total bytes) to keep the event count
tractable, and add the full-face ``exchange_3`` boundary swaps.
"""

from __future__ import annotations

from repro.workloads.nas.common import NasBenchmark, co_allreduce_bytes, register
from repro.workloads.nas.topology_utils import coords2d, grid2d, rank2d

GRID = 162
DOUBLE = 8
VARS = 5
ITERS = 250
K_BLOCK = 16  # k-planes batched per pipeline message
TAG_SWEEP_BASE = 31  # + sweep index (occupies 31..32)
TAG_EXCHANGE3 = 33
#: SSOR compute per k-block (lower+upper triangular solves of the local
#: 21x21 columns).  Charged inside the skeleton because the wavefront's
#: timing is *paced* by it: without per-block work the simulated
#: pipeline drifts into unphysical phasings (encryption appearing
#: free).  Auto-calibration still holds — the baseline skeleton time is
#: subtracted from the paper total when budgeting the remaining compute.
BLOCK_COMPUTE_SECONDS = 150e-6


def _skeleton(ctx):
    comm = ctx.enc or ctx.comm
    p = ctx.size
    rows, cols = grid2d(p)
    i, j = coords2d(ctx.rank, rows, cols)
    local_edge = max(GRID // rows, 2)
    strip = local_edge * VARS * DOUBLE * K_BLOCK  # boundary strip per block
    nblocks = max(GRID // K_BLOCK, 1)

    north = rank2d(i - 1, j, rows, cols) if i > 0 else None
    south = rank2d(i + 1, j, rows, cols) if i < rows - 1 else None
    west = rank2d(i, j - 1, rows, cols) if j > 0 else None
    east = rank2d(i, j + 1, rows, cols) if j < cols - 1 else None

    for sweep_tag, (recv_a, recv_b, send_a, send_b) in enumerate(
        ((north, west, south, east), (south, east, north, west))
    ):
        tag = TAG_SWEEP_BASE + sweep_tag
        for _blk in range(nblocks):
            if recv_a is not None:
                yield from comm.co_recv(recv_a, tag)
            if recv_b is not None:
                yield from comm.co_recv(recv_b, tag)
            yield from ctx.co_compute(BLOCK_COMPUTE_SECONDS)
            if send_a is not None:
                yield from comm.co_send(b"\x00" * strip, send_a, tag)
            if send_b is not None:
                yield from comm.co_send(b"\x00" * strip, send_b, tag)

    # exchange_3: full-face swaps after the sweeps.
    face = local_edge * GRID * VARS * DOUBLE
    for dst, src in ((south, north), (north, south), (east, west), (west, east)):
        if dst is None and src is None:
            continue
        if dst is not None and src is not None:
            yield from comm.co_sendrecv(b"\x00" * face, dst, src,
                                        TAG_EXCHANGE3, TAG_EXCHANGE3)
        elif dst is not None:
            yield from comm.co_send(b"\x00" * face, dst, tag=TAG_EXCHANGE3)
        else:
            yield from comm.co_recv(src, tag=TAG_EXCHANGE3)
    yield from co_allreduce_bytes(ctx, VARS * DOUBLE)  # residual norms


LU = register(
    NasBenchmark(
        name="lu",
        iterations=ITERS,
        skeleton=_skeleton,
        payload_kind="strided",
        description="SSOR wavefront: pipelined thin strips (two sweeps per "
        "iteration) plus full-face boundary exchanges",
    )
)

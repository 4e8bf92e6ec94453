"""CG — conjugate gradient, irregular memory access (class C).

Class C: n = 150,000, 75 outer iterations, each running a 25-step
conjugate-gradient solve (plus one extra matvec).  Ranks form a 2D
grid; each matvec does:

- a row-wise sum-reduction of the partial result vector via log2(cols)
  paired exchanges of successively halved segments (NAS's
  ``transpose-free'' reduction),
- one exchange with the transpose partner,
- dot-product reductions (folded into one small allreduce here).
"""

from __future__ import annotations

from repro.workloads.nas.common import NasBenchmark, co_allreduce_bytes, register
from repro.workloads.nas.topology_utils import coords2d, grid2d, rank2d

N = 150_000
OUTER_ITERS = 75
INNER_ITERS = 26  # 25 CG steps + the extra residual matvec
DOUBLE = 8
TAG_ROW_REDUCE = 11
TAG_TRANSPOSE = 12


def _skeleton(ctx):
    comm = ctx.enc or ctx.comm
    p = ctx.size
    rows, cols = grid2d(p)
    i, j = coords2d(ctx.rank, rows, cols)
    seg_doubles = N // rows  # partial vector length per row

    for _step in range(INNER_ITERS):
        # Row-wise sum-reduction: log2(cols) exchange-and-add stages,
        # each moving the *full* partial vector (the NAS CG code sends
        # full-length w segments, not recursive halves).  With one
        # process row per node (64 ranks / 8 nodes) these exchanges stay
        # intra-node — cheap on the wire but fully encrypted, which is
        # why CG's encryption overhead is among the largest in Table IV.
        stage = 1
        payload = b"\x00" * max(seg_doubles * DOUBLE, DOUBLE)
        while stage < cols:
            partner = rank2d(i, j ^ stage, rows, cols)
            yield from comm.co_sendrecv(payload, partner, partner,
                                        TAG_ROW_REDUCE, TAG_ROW_REDUCE)
            stage <<= 1
        # Transpose exchange of the row-reduced vector segment.  NAS CG
        # pairs rank (i, j) with (j, i) — an involution only on square
        # grids; on the 2:1 grids it uses for non-square process counts
        # the exchange partner is the half-row rotation (also an
        # involution).  Both are implemented; other shapes skip the
        # exchange (NAS CG does not support them either).
        tpartner = None
        if rows == cols:
            tpartner = rank2d(j, i, rows, cols)
        elif cols % 2 == 0:
            tpartner = rank2d(i, (j + cols // 2) % cols, rows, cols)
        if tpartner is not None and tpartner != ctx.rank:
            chunk = max(seg_doubles * DOUBLE, DOUBLE)
            yield from comm.co_sendrecv(b"\x00" * chunk, tpartner, tpartner,
                                        TAG_TRANSPOSE, TAG_TRANSPOSE)
        # Two dot products per CG step, folded into one 16-byte allreduce.
        yield from co_allreduce_bytes(ctx, 2 * DOUBLE)


CG = register(
    NasBenchmark(
        name="cg",
        iterations=OUTER_ITERS,
        skeleton=_skeleton,
        description="Conjugate gradient: row-reductions + transpose "
        "exchanges of ~75-150 KB segments, 26 matvecs per iteration",
    )
)

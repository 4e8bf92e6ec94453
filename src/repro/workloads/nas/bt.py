"""BT — block-tridiagonal ADI solver (class C).

Class C: a 162^3 grid, 200 iterations.  BT uses the *multi-partition*
decomposition: on a sqrt(p) x sqrt(p) process grid (8x8 at p = 64) each
rank owns sqrt(p) diagonal cells, so every ADI line solve pipelines
through sqrt(p) stages and each stage ships a cell-boundary plane of
5x5 block matrices plus right-hand sides to the next rank in the sweep
direction.  Forward elimination and back substitution each traverse the
stages, in x, y and z.  ``copy_faces`` additionally swaps the faces of
every cell with the grid neighbours before each iteration.

At class C / 64 ranks: cell edge 162/8 ~ 20, cell face 400 points; a
solve-stage message carries 400 x (25 + 5) doubles ~ 96 KB, and the
per-rank volume is ~6 MB per iteration (~1.2 GB per run) — the largest
communication load of the suite, which is why BT shows the largest
encrypted delta in Table IV.
"""

from __future__ import annotations

from repro.workloads.nas.common import NasBenchmark, register
from repro.workloads.nas.topology_utils import coords2d, grid2d, rank2d

GRID = 162
DOUBLE = 8
ITERS = 200
#: doubles per boundary point in a solve stage: 5x5 block + 5-vector rhs
SOLVE_DOUBLES_PER_POINT = 30
#: doubles per boundary point in copy_faces: 5 vars, 2-deep ghost
FACE_DOUBLES_PER_POINT = 10
TAG_COPY_FACES = 41  # + axis (occupies 41..42)
TAG_SOLVE_BASE = 43  # + 2*direction + phase (occupies 43..48)


def _skeleton(ctx):
    comm = ctx.enc or ctx.comm
    p = ctx.size
    rows, cols = grid2d(p)
    i, j = coords2d(ctx.rank, rows, cols)
    cells = min(rows, cols)  # diagonal cells per rank (multi-partition)
    cell_edge = max(GRID // rows, 2)
    face_points = cell_edge * cell_edge

    # copy_faces: each cell swaps ghost faces with the four neighbours.
    face = face_points * FACE_DOUBLES_PER_POINT * DOUBLE
    for axis in range(2):
        for delta in (1, -1):
            if axis == 0:
                dst = rank2d(i, j + delta, rows, cols)
                src = rank2d(i, j - delta, rows, cols)
            else:
                dst = rank2d(i + delta, j, rows, cols)
                src = rank2d(i - delta, j, rows, cols)
            if dst == ctx.rank:
                continue
            tag = TAG_COPY_FACES + axis
            yield from comm.co_sendrecv(b"\x00" * (face * cells), dst, src,
                                        tag, tag)

    # x / y / z line solves: forward elimination then back substitution,
    # each pipelining a stage message per owned cell.
    plane = face_points * SOLVE_DOUBLES_PER_POINT * DOUBLE
    for direction in range(3):
        horizontal = direction != 1
        for phase in range(2):  # forward, backward
            tag = TAG_SOLVE_BASE + 2 * direction + phase
            sweep = 1 if phase == 0 else -1
            for _cell in range(cells):
                if horizontal:
                    dst = rank2d(i, j + sweep, rows, cols)
                    src = rank2d(i, j - sweep, rows, cols)
                else:
                    dst = rank2d(i + sweep, j, rows, cols)
                    src = rank2d(i - sweep, j, rows, cols)
                if dst == ctx.rank:
                    continue
                yield from comm.co_sendrecv(b"\x00" * plane, dst, src,
                                            tag, tag)


BT = register(
    NasBenchmark(
        name="bt",
        iterations=ITERS,
        skeleton=_skeleton,
        description="Block-tridiagonal ADI, multi-partition: per iteration "
        "~48 solve-stage exchanges of 5x5-block planes (~96 KB) plus "
        "cell-face ghost swaps",
        payload_kind="strided",
    )
)

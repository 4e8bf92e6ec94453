"""SP — scalar-pentadiagonal ADI solver (class C).

Class C: a 162^3 grid, 400 iterations.  Same multi-partition structure
as BT, but the line solves factor into five independent *scalar*
pentadiagonal systems, so a solve-stage message carries only ~10
doubles per boundary point instead of BT's 30 — roughly a third of the
volume per stage at twice the iteration count.
"""

from __future__ import annotations

from repro.workloads.nas.common import NasBenchmark, register
from repro.workloads.nas.topology_utils import coords2d, grid2d, rank2d

GRID = 162
DOUBLE = 8
ITERS = 400
SOLVE_DOUBLES_PER_POINT = 10
FACE_DOUBLES_PER_POINT = 10
TAG_COPY_FACES = 51  # + axis (occupies 51..52)
TAG_SOLVE_BASE = 53  # + 2*direction + phase (occupies 53..58)


def _skeleton(ctx):
    comm = ctx.enc or ctx.comm
    p = ctx.size
    rows, cols = grid2d(p)
    i, j = coords2d(ctx.rank, rows, cols)
    cells = min(rows, cols)
    cell_edge = max(GRID // rows, 2)
    face_points = cell_edge * cell_edge

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

    plane = face_points * SOLVE_DOUBLES_PER_POINT * DOUBLE
    for direction in range(3):
        horizontal = direction != 1
        for phase in range(2):
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


SP = register(
    NasBenchmark(
        name="sp",
        iterations=ITERS,
        skeleton=_skeleton,
        description="Scalar-pentadiagonal ADI, multi-partition: thinner "
        "solve-stage planes than BT, 400 iterations",
        payload_kind="strided",
    )
)

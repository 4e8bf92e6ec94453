"""MG — multigrid V-cycles, halo exchanges across all levels (class C).

Class C: a 512^3 grid, 20 iterations.  With p ranks in a 3D process
grid (4x4x4 at p = 64), the finest local block is 128^3; each V-cycle
smooths at every level, exchanging six halo faces per smoothing step.
Face sizes shrink 4x per level (128 KiB at the finest level for p=64).
"""

from __future__ import annotations

from repro.workloads.nas.common import NasBenchmark, co_allreduce_bytes, register
from repro.workloads.nas.topology_utils import coords3d, grid3d, rank3d

GRID = 512
DOUBLE = 8
ITERS = 20
#: halo-exchange sets per level per V-cycle: smoothing on the way down,
#: residual restriction, prolongation + smoothing on the way up.
SMOOTHS_PER_LEVEL = 4
TAG_HALO = 21  # + dimension (occupies 21..23)


def _skeleton(ctx):
    comm = ctx.enc or ctx.comm
    p = ctx.size
    nx, ny, nz = grid3d(p)
    x, y, z = coords3d(ctx.rank, nx, ny, nz)
    local = max(GRID // max(nx, ny, nz), 2)

    level_face = local  # face edge length at the current level
    while level_face >= 2:
        face_bytes = max(level_face * level_face * DOUBLE, DOUBLE)
        for _smooth in range(SMOOTHS_PER_LEVEL):
            # One exchange per dimension per direction.
            for dim, (n_dim, coord) in enumerate(((nx, x), (ny, y), (nz, z))):
                if n_dim == 1:
                    continue
                deltas = ((1, -1), (-1, 1))
                for d_dst, d_src in deltas:
                    if dim == 0:
                        dst = rank3d(x + d_dst, y, z, nx, ny, nz)
                        src = rank3d(x + d_src, y, z, nx, ny, nz)
                    elif dim == 1:
                        dst = rank3d(x, y + d_dst, z, nx, ny, nz)
                        src = rank3d(x, y + d_src, z, nx, ny, nz)
                    else:
                        dst = rank3d(x, y, z + d_dst, nx, ny, nz)
                        src = rank3d(x, y, z + d_src, nx, ny, nz)
                    if dst == ctx.rank:
                        continue
                    tag = TAG_HALO + dim
                    yield from comm.co_sendrecv(b"\x00" * face_bytes, dst,
                                                src, tag, tag)
        level_face //= 2
    yield from co_allreduce_bytes(ctx, DOUBLE)  # residual norm


MG = register(
    NasBenchmark(
        name="mg",
        iterations=ITERS,
        skeleton=_skeleton,
        payload_kind="strided",
        description="Multigrid V-cycle: six-face halo exchanges at every "
        "level (128 KiB faces at the finest), residual allreduce",
    )
)

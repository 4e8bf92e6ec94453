"""FT — 3D FFT, alltoall-dominated (class C).

Class C: a 512x512x512 complex grid (2.1 GB), 20 iterations.  The 3D
FFT transposes the distributed grid once per iteration via
MPI_Alltoall: with p ranks, each pair exchanges (512^3 * 16) / p^2
bytes (512 KiB at p = 64).  A 16-byte checksum allreduce follows.
"""

from __future__ import annotations

from repro.workloads.nas.common import NasBenchmark, co_allreduce_bytes, register

GRID = 512
COMPLEX = 16
ITERS = 20


def _skeleton(ctx):
    comm = ctx.enc or ctx.comm
    p = ctx.size
    per_pair = (GRID ** 3 * COMPLEX) // (p * p)
    # one shared chunk: NAS runs bytework="modeled", so no rank ever
    # needs p distinct buffers
    chunks = [b"\x00" * per_pair] * p
    yield from comm.co_alltoall(chunks)
    yield from co_allreduce_bytes(ctx, COMPLEX)  # checksum


FT = register(
    NasBenchmark(
        name="ft",
        iterations=ITERS,
        skeleton=_skeleton,
        description="3D FFT: one 512 KiB-per-pair alltoall transpose per "
        "iteration plus a checksum allreduce",
    )
)

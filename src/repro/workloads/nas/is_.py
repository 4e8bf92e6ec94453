"""IS — integer sort, alltoallv-dominated (class C).

Class C: 2^27 4-byte keys, 10 ranked iterations.  Each iteration
reduces the bucket-size histogram (1024 buckets) and redistributes the
keys with MPI_Alltoallv; keys are uniform, so each pair carries
(2^27 * 4) / p^2 bytes (~128 KiB at p = 64).
"""

from __future__ import annotations

from repro.workloads.nas.common import NasBenchmark, co_allreduce_bytes, register

TOTAL_KEYS = 1 << 27
KEY_BYTES = 4
BUCKETS = 1024
ITERS = 10


def _skeleton(ctx):
    comm = ctx.enc or ctx.comm
    p = ctx.size
    yield from co_allreduce_bytes(ctx, BUCKETS * KEY_BYTES)
    per_pair = (TOTAL_KEYS * KEY_BYTES) // (p * p)
    # one shared chunk: NAS runs bytework="modeled", so no rank ever
    # needs p distinct buffers
    chunks = [b"\x00" * per_pair] * p
    yield from comm.co_alltoallv(chunks)


IS = register(
    NasBenchmark(
        name="is",
        iterations=ITERS,
        skeleton=_skeleton,
        description="Integer sort: 4 KiB histogram allreduce plus a "
        "~128 KiB-per-pair key alltoallv per iteration",
    )
)

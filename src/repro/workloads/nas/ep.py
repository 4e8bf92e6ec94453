"""EP — embarrassingly parallel (class C).

The paper's table omits EP — deliberately, one assumes: EP's only
communication is a handful of small reductions at the end (Gaussian-
pair counts and two sums over 2^32 samples at class C), so encryption
cost is indistinguishable from zero.  The proxy is included to complete
the NPB suite and to *demonstrate* that point: its encrypted totals are
the baseline to within measurement resolution, the boundary case of the
paper's "overhead depends on communication intensity" story.

EP has no per-iteration structure; the skeleton models the terminal
reduction phase and the auto-calibration assigns essentially the whole
published runtime to compute.  (No published class C baseline exists in
the paper for EP, so off-paper runs use the nominal budget rule.)
"""

from __future__ import annotations

from repro.workloads.nas.common import NasBenchmark, co_allreduce_bytes, register

DOUBLE = 8
ITERS = 1  # a single terminal reduction phase


def _skeleton(ctx):
    # sx, sy sums and the 10-bin annulus counts: three small allreduces.
    yield from co_allreduce_bytes(ctx, 2 * DOUBLE)
    yield from co_allreduce_bytes(ctx, 10 * DOUBLE)
    yield from co_allreduce_bytes(ctx, DOUBLE)


EP = register(
    NasBenchmark(
        name="ep",
        iterations=ITERS,
        skeleton=_skeleton,
        description="Embarrassingly parallel: three small terminal "
        "allreduces; encryption overhead ~0 by construction",
    )
)

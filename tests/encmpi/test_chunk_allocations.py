"""Allocation guard: the modeled cryptmpi chunk path copies no payload.

``tracemalloc`` counts bytes, not time, so the bounds are deterministic.
The workloads build their payload once (it counts towards the peak);
a copy put back anywhere on the chunk path, a sliced chunk on send or a
joined message on receive, adds at least a payload's worth per message
in flight.
"""

import tracemalloc

from repro.encmpi import CryptoPlan
from repro.workloads.multipair import multipair_aggregate_throughput
from repro.workloads.pingpong import pingpong_oneway_time

MIB = 1 << 20
RUN = dict(network="infiniband", library="boringssl",
           crypto=CryptoPlan(mode="cryptmpi", chunk_bytes=256 * 1024))


def _peak(fn) -> int:
    """Peak bytes allocated while *fn* runs, above what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_pingpong_peaks_near_one_payload():
    size = 4 * MIB
    pingpong_oneway_time(1024, iters=1, **RUN)  # warm lazy tables
    peak = _peak(lambda: pingpong_oneway_time(size, **RUN))
    assert peak < 1.5 * size, f"peak {peak / size:.2f}x the payload"


def test_multipair_window_peaks_below_four_payloads():
    multipair_aggregate_throughput(1024, 1, window=1, iters=1, **RUN)
    peak = _peak(lambda: multipair_aggregate_throughput(MIB, 4, window=4,
                                                        **RUN))
    assert peak < 4 * MIB, f"peak {peak / MIB:.2f} MiB"

"""Host-speed calibration: a fixed reference kernel timed between cells.

The machine this benchmark runs on may be shared, and its speed then
shifts by tens of percent within seconds as neighbours come and go.  A
shift slows the simulator and this kernel alike, so the benchmark times
the kernel once before every cell and reports each host time scaled to
the speed at which the kernel takes :data:`REFERENCE_MS`:

    reported = measured * REFERENCE_MS / (kernel time around that cell)

"Around that cell" is the median kernel time over the
:data:`WINDOW` cells either side, so one stray slow kernel run moves
nothing.  The kernel does the simulator's two kinds of host work and
never changes, so a change to the simulator moves the reported times by
exactly as much as it moves the measured ones:

- pure Python of the simulator's own kind: an event heap, small
  objects, dict counters, a generator resumed by ``send``, word and
  byte mixing;
- lock handoffs between two OS threads, the way the threads rank
  runtime passes control (``des.process``), which a shared machine
  slows differently from Python code.

The raw, unscaled figures are printed beside the scaled ones.  On a
2-vCPU KVM guest (Xeon, shared host), the Python part alone tracked
the simulator's slowdown to about its 0.7th power on pure-Python cells
and its 0.5th on thread-handoff-heavy ones; the mix tracked both to
about the 0.85th to 0.95th power.
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time

#: the reference kernel's host time at the reporting speed, in ms
REFERENCE_MS = 3.0
#: cells either side whose kernel timings set a cell's local speed
WINDOW = 5

_EVENTS = 1000
_MIX_ROUNDS = 3000
#: round trips of the handoff part (about two fifths of the kernel)
_HANDOFFS = 100


class _Event:
    __slots__ = ("t", "n")

    def __init__(self, t: float, n: int) -> None:
        self.t = t
        self.n = n


def _accumulator(scale: int):
    total = 0.0
    while True:
        dt = yield total
        total += dt * scale


def _python_work() -> float:
    """Schedule and drain an event heap, then mix words and bytes as a
    pure-Python cipher does."""
    heap: list = []
    counts: dict[int, int] = {}
    acc = _accumulator(3)
    next(acc)
    out = 0.0
    for i in range(_EVENTS):
        ev = _Event(((i * 7919) % 1009) * 1e-6, i)
        heapq.heappush(heap, (ev.t, i, ev))
        counts[i & 255] = counts.get(i & 255, 0) + 1
    while heap:
        _t, _i, ev = heapq.heappop(heap)
        out += acc.send(ev.t) * 1e-3 + ev.n + counts[ev.n & 255]
    x, block = 0x12345678, bytearray(256)
    for i in range(_MIX_ROUNDS):
        x = ((x << 7) | (x >> 25)) & 0xFFFFFFFF
        x = (x + 0x9E3779B9 + i) & 0xFFFFFFFF
        block[i & 255] ^= x & 0xFF
    return out + sum(block)


class SpeedKernel:
    """The reference kernel and the echo thread of its handoff part.

    Use it as a context manager: leaving it stops and joins the thread.
    """

    def __init__(self) -> None:
        self._ping = threading.Lock()
        self._pong = threading.Lock()
        self._ping.acquire()
        self._pong.acquire()
        self._stopping = False
        self._echo_thread = threading.Thread(target=self._echo,
                                             name="speed-kernel-echo")
        self._echo_thread.start()

    def _echo(self) -> None:
        while True:
            self._ping.acquire()
            if self._stopping:
                return
            self._pong.release()

    def time(self) -> float:
        """Host seconds of one kernel run."""
        t = time.perf_counter()
        _python_work()
        for _ in range(_HANDOFFS):
            self._ping.release()
            self._pong.acquire()
        return time.perf_counter() - t

    def close(self) -> None:
        self._stopping = True
        self._ping.release()
        self._echo_thread.join()

    def __enter__(self) -> "SpeedKernel":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def scale_series(measured: list[float], kernel: list[float]) -> list[float]:
    """Scale each measured time by the kernel's local speed around it."""
    out = []
    for i, m in enumerate(measured):
        local = statistics.median(kernel[max(0, i - WINDOW):i + WINDOW + 1])
        out.append(m * REFERENCE_MS * 1e-3 / local)
    return out


class IntervalGauge:
    """Kernel runs spread over a one-off interval, such as set-up."""

    def __init__(self, kernel: SpeedKernel) -> None:
        self.kernel = kernel
        self.kernel_s: list[float] = []

    def sample(self, runs: int = 1) -> None:
        self.kernel_s.extend(self.kernel.time() for _ in range(runs))

    def scale(self, elapsed: float) -> tuple[float, float]:
        """(*elapsed* less the kernel's own runs, the same at the
        reference speed)."""
        own = elapsed - sum(self.kernel_s)
        return own, own * REFERENCE_MS * 1e-3 / statistics.median(self.kernel_s)

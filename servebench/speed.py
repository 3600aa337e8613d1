"""Machine-speed probe for host-time metrics.

The host clock of a shared virtual machine runs at a speed that changes
by up to 2x within minutes (neighbours on the same physical cores), so a
raw wall time says as much about the machine as about the program.
:class:`SpeedProbe` samples the machine's speed *while* the measured code
runs: a ``SIGALRM`` interval timer interrupts the main thread every
``interval`` seconds and times one call of :func:`kernel`, a fixed piece
of Python and small-array numpy work, the simulator's own mix, that
lives in the benchmark, not in the program.
No thread is started; the handler runs between bytecodes of the
measured code.

:meth:`SpeedProbe.normalise` turns a wall time into seconds at the
reference speed: the wall time minus the time spent in the handler,
scaled by :data:`REFERENCE_KERNEL_S` over the mean kernel time.  The
mean, not the median, is used because a slowdown that hits a fraction of
the samples hits the same fraction of the measured code.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List

import numpy as np

#: Kernel time, in seconds, that defines the reference machine speed:
#: normalised times read as seconds on a machine where :func:`kernel`
#: takes this long.  Close to its time on the 2.0 GHz Xeon vCPU the
#: bounds were set on.
REFERENCE_KERNEL_S = 1.2e-3

_ROW = np.arange(64, dtype=np.float64)


def kernel() -> float:
    """Fixed work in the simulator's mix: heap, dict, float and small numpy ops."""
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(150):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 32:
            heapq.heappop(heap)
        table[i & 127] = table.get(i & 127, 0) + i
        acc += float(_ROW[i & 63]) + float(np.sum(_ROW[: (i & 15) + 1]))
    return acc


class SpeedProbe:
    """Context manager: sample :func:`kernel` every ``interval`` seconds."""

    def __init__(self, interval: float):
        self.interval = interval
        #: Duration of each sampled kernel call.
        self.samples: List[float] = []
        #: Time spent in the handler, kernel calls included.
        self.handler_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        kernel()  # warm the code object before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def kernel_s(self) -> float:
        """Mean kernel time; one extra call when no sample was taken."""
        if not self.samples:
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)
        return sum(self.samples) / len(self.samples)

    def normalise(self, wall_s: float) -> float:
        """``wall_s`` without the handler's time, at the reference speed."""
        return (wall_s - self.handler_s) * REFERENCE_KERNEL_S / self.kernel_s

"""Host-speed probe: scales wall-clock times to one reference host speed.

On a host shared with other tenants the same code runs up to half
again as fast or slow from one second to the next, and the benchmark's
process sees it as CPU time, not as waiting: a thread's CPU time and
its wall time agree to within a percent while both change.  A median
over a run cannot remove changes that outlast the run.

So each client thread times a fixed pure-Python kernel, :func:`probe`,
between its ops, on its own thread and so on the CPU that runs its ops
(probed from another thread, the kernel followed the *other* vCPU and
tracked the ops worse than no scaling).  The kernel uses nothing from
``src/``: object allocation, attribute access, method calls and dict
lookups, the operations the VM's interpreter loop is made of, in a
working set that fits the caches; it frees all it allocates, so
probing does not lengthen the program's garbage collections.

An op's latency *at reference speed* is its measured latency times
``REFERENCE_S`` over the mean of the probes just before and just after
it: the time the same op would take on a host where one probe takes
``REFERENCE_S``.  An op that lasts over a second spans several changes
of speed, so it is timed step by step with a probe between every two
steps (:class:`StepClock`).  A change to the program moves the measured time and
not the probe, so it shows in full; a host that runs everything slower
moves both.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Probe CPU time, in seconds, that defines the reference host speed:
#: about the median this kernel takes on a quiet shared 2-vCPU x86-64
#: host under CPython 3.11, so times at reference speed stay close to
#: the measured ones there.
REFERENCE_S = 0.0015

#: Kernel passes per probe, each about a millisecond.
PASSES = 3


class _Cell:
    __slots__ = ("value", "link", "tag")

    def __init__(self, value: int) -> None:
        self.value = value
        self.link = None
        self.tag = value & 7

    def step(self, key: int) -> int:
        self.value = (self.value * 31 + key) & 0xFFFFFFFF
        return self.value >> 5


def _kernel() -> int:
    cells = [_Cell(index) for index in range(512)]
    for index, cell in enumerate(cells):
        cell.link = cells[(index * 193) & 511]
    table = {index: (index * 7) & 0xFFFF for index in range(1024)}
    out: List[tuple] = []
    acc = 1
    for index in range(800):
        cell = cells[acc & 511]
        acc = (acc + cell.step(index)) & 0xFFFFFFFF
        acc ^= table.get(acc & 0x7FF, 0)
        cell = cell.link
        if cell.tag & 1:
            out.append((cell.tag, acc & 255))
        else:
            acc += len(out) & 3
        frame = {"op": acc & 15, "a": cell.value, "b": index}
        acc += frame["op"]
    return acc


def probe() -> float:
    """Thread CPU seconds of the fastest of :data:`PASSES` passes of the
    kernel.  A pass that the interpreter switched away from in the middle
    (another client thread taking the GIL) resumes on cold caches and
    runs long; the fastest pass is the one that was not interrupted."""
    fastest = float("inf")
    for _ in range(PASSES):
        start = time.thread_time()
        _kernel()
        fastest = min(fastest, time.thread_time() - start)
    return fastest


class StepClock:
    """Times an op step by step with a probe between every two steps,
    for ops long enough to outlast a change of host speed."""

    def __init__(self) -> None:
        self.measured = 0.0
        self._scaled = 0.0
        self._before = probe()
        self._start = time.perf_counter()

    def lap(self) -> None:
        """End a step: add its time, scaled by the probes around it."""
        took = time.perf_counter() - self._start
        after = probe()
        self.measured += took
        self._scaled += took / ((self._before + after) / 2)
        self._before = after
        self._start = time.perf_counter()

    def probe(self) -> float:
        """The one probe that scales the op's measured time as its
        steps' own probes did."""
        return self.measured / self._scaled


def probes(count: int) -> List[float]:
    return [probe() for _ in range(count)]


def factor(samples: List[float]) -> float:
    """Multiplier from measured times to times at reference speed."""
    return REFERENCE_S / statistics.median(samples)

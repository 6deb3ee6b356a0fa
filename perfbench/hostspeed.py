"""How fast the host runs Python right now.

The host this benchmark runs on is shared: measured on two CPUs, the
interpreter's speed drifted by a quarter within tens of seconds, and a
ten-second run's throughput moved with it.  The benchmark therefore
runs one fixed slice of interpreter work (`probe`) before every round
and after the last, on each CPU the round's work runs on, and scales
each round's times by the host speed around it.  The slice mixes what the program does most: object
allocation, method calls, generator resumption, heap and dict updates.
The program never runs inside it, so a change to the program cannot
move it.
"""

from __future__ import annotations

import heapq
import os
from time import perf_counter
from typing import List, Sequence

#: iterations of the probe loop: 17 to 35 ms on a shared 2-CPU host
PROBE_ITERATIONS = 12_000
#: the probe's time on the reference host, in seconds; a round timed
#: while the probe took twice as long has its times halved
REFERENCE_PROBE_S = 0.020


class _Item:
    __slots__ = ("key", "val")

    def __init__(self, key: int, val: int) -> None:
        self.key = key
        self.val = val

    def weight(self) -> int:
        return self.key + self.val


def _accumulate():
    total = 0
    while True:
        total += yield total


def probe() -> float:
    """Seconds the fixed slice of work takes now."""
    t0 = perf_counter()
    heap = []
    table = {}
    acc = _accumulate()
    next(acc)
    for i in range(PROBE_ITERATIONS):
        item = _Item(i & 1023, i & 15)
        heapq.heappush(heap, (item.weight() * 7919 % 1009, i, item))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[i & 255] = {"k": i, "v": [i, str(i)]}
        acc.send(i & 3)
    return perf_counter() - t0


def speed(probe_s: float) -> float:
    """Host speed relative to the reference host: above 1 is faster."""
    return REFERENCE_PROBE_S / probe_s


def pin() -> List[int]:
    """Pin this process to the first CPU it may use, and return that CPU
    followed by the others it may use.

    Pinned, the probe times the CPU the work runs on.  The fleet's node
    gets the second CPU: left to the scheduler, the load process and
    the node sometimes share one CPU and sometimes not, and the fleet's
    throughput differs by about two times between the two placements.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus


def probe_on(cpus: Sequence[int]) -> float:
    """The mean probe time over ``cpus``; this process moves to each in
    turn and returns to the first."""
    if len(cpus) < 2:
        return probe()
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times.append(probe())
    os.sched_setaffinity(0, {cpus[0]})
    return sum(times) / len(times)

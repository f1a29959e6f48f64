"""Host-speed reference loop, interleaved with the replays.

On a shared host the wall clock of identical work drifts by 30-70% over
minutes (other tenants, frequency scaling), far more than the bound a
regression gate can afford.  The benchmark therefore times this fixed
pure-Python loop before and after every replay and reports the
replay's wall time scaled by ``NOMINAL_S / reference time``: the wall
time the replay would have taken on a host running the loop in
``NOMINAL_S``.  The loop uses none of the program's code, so a change
to the program moves the scaled figure exactly as it moves the wall
clock, while a host slowdown moves both the replay and the loop.

The loop mixes what the simulator spends its time on: heap pushes and
pops of tuples, dict reads and writes, attribute access on slotted
objects and method calls.
"""

from __future__ import annotations

import heapq
import time

#: the loop's duration on a quiet 2-CPU x86-64 host with CPython 3.11;
#: a scale constant only (scaled times read as microseconds there)
NOMINAL_S = 0.025

_ROUNDS = 20_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value

    def weight(self) -> int:
        return self.key + self.value


def reference_loop() -> int:
    heap = []
    table = {}
    total = 0
    for i in range(_ROUNDS):
        item = _Item((i * 7919) % 1009, i)
        heapq.heappush(heap, (item.key, i, item))
        table[i % 512] = item
        if len(heap) > 64:
            key, _seq, popped = heapq.heappop(heap)
            total += popped.weight() + table.get(key % 512, popped).key
    return total


def time_reference() -> float:
    """Seconds one reference loop takes on this host, now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start

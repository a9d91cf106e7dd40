"""Host-speed reference kernel and the adjustment it drives.

On a shared VM the same pure-Python loop can take 1.6x longer from one
minute to the next.  The benchmark therefore times a fixed reference
kernel right before and right after every timed slice, and scales the
slice's raw time by ``REF_NOMINAL_MS / mean(before, after)``.  The
adjusted time reads as "seconds on the nominal host".

This module imports nothing from ``repro``: the kernel's cost must not
move when the program under test changes.  It runs with the garbage
collector paused, so the size of the program's heap cannot move it
either.
"""

from __future__ import annotations

import functools
import gc
import heapq
import statistics
import time
from array import array
from typing import List, Sequence

#: Reference-kernel time, in milliseconds, that defines the nominal
#: host.  On the 2-core VM (Python 3.11) the benchmark was built on, the
#: kernel took about 13 ms in fast phases and 21 ms in slow ones.  A
#: constant: it is never re-measured per run, so adjusted numbers from
#: different runs share one scale.
REF_NOMINAL_MS = 16.0
#: Iterations of the kernel's compute loop (a fixed amount of work).
REF_ITERATIONS = 5_000
#: Dependent loads of the kernel's memory chase, over a 4 MiB table.
REF_CHASE_STEPS = 42_000
REF_CHASE_BITS = 19
#: The kernel's result for the sizes above; a mismatch means the kernel
#: did other work than the one ``REF_NOMINAL_MS`` was pinned on.
REF_CHECKSUM = 512943770


class _Item:
    """A small heap-allocated record (attribute traffic)."""

    def __init__(self, key: int, weight: int):
        self.key = key
        self.weight = weight
        self.hits = 0


@functools.lru_cache(maxsize=1)
def _chase_table() -> array:
    """One full cycle through 2**REF_CHASE_BITS slots (an LCG).

    ``c`` odd and ``a - 1`` divisible by 4 give the LCG full period, so
    following ``table[i]`` visits every slot once before repeating.
    """
    mask = (1 << REF_CHASE_BITS) - 1
    return array("q", [(1103515245 * i + 12345) & mask
                       for i in range(mask + 1)])


def reference_kernel(iterations: int = REF_ITERATIONS,
                     steps: int = REF_CHASE_STEPS) -> int:
    """A fixed heap/attribute/dict loop plus a dependent memory chase.

    The compute loop slows down with the core clock; the chase, a
    cache-missing walk, slows less.  The simulator sits between the
    two, so the mix tracks it better than either part alone.  Returns a
    checksum of the work.
    """
    heap: list = []
    table: dict = {}
    checksum = 0
    for i in range(iterations):
        key = (i * 2654435761) % 4093
        item = table.get(key)
        if item is None:
            item = _Item(key, i & 255)
            table[key] = item
        item.hits += 1
        heapq.heappush(heap, (item.weight + item.hits, i, item))
        if len(heap) > 256:
            _, seq, old = heapq.heappop(heap)
            checksum = (checksum * 31 + seq + old.key) % 1_000_000_007
    chase = _chase_table()
    slot = 0
    for _ in range(steps):
        slot = chase[slot]
    return (checksum * 31 + slot) % 1_000_000_007


def time_reference() -> float:
    """Seconds one reference-kernel call takes, with the GC paused."""
    _chase_table()
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        checksum = reference_kernel()
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if checksum != REF_CHECKSUM:
        raise RuntimeError(
            f"reference kernel checksum {checksum} != pinned "
            f"{REF_CHECKSUM}: the kernel no longer does its fixed work")
    return elapsed


def adjustment(before: float, after: float) -> float:
    """Factor turning raw host seconds into nominal-host seconds."""
    return REF_NOMINAL_MS / 1000.0 / ((before + after) / 2.0)


class HostClock:
    """Brackets timed slices with the reference kernel.

    ``bracket()`` returns the reference time that closes the previous
    slice and opens the next one, so back-to-back slices share one
    reference call between them.
    """

    def __init__(self):
        self.refs: List[float] = []

    def bracket(self) -> float:
        """Time the reference kernel now and remember it."""
        seconds = time_reference()
        self.refs.append(seconds)
        return seconds

    def quartiles_ms(self) -> List[float]:
        """Q1, median, Q3 of every reference timing, in ms."""
        return ref_quartiles_ms(self.refs)


def ref_quartiles_ms(refs: Sequence[float]) -> List[float]:
    """Q1, median, Q3 of reference timings (seconds) in milliseconds."""
    return statistics.quantiles([r * 1000.0 for r in refs], n=4)


if __name__ == "__main__":
    # Print the host's reference quartiles (ms), e.g. to re-pin
    # REF_NOMINAL_MS after changing the kernel.
    print(ref_quartiles_ms([time_reference() for _ in range(100)]))

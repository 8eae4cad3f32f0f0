"""Machine speed, measured by a fixed pure-Python loop.

Machines shared with other tenants can run at half speed for tens of
seconds at a time, longer than one run.  Each child therefore also
times this loop, which never touches the kernel, just before set-up
and between items, and ``run.py`` scales each time by ``REFERENCE_S``
over the loop's time next to it: times read as seconds on a machine
where the loop takes ``REFERENCE_S``.  A kernel change moves the
kernel's times and not the loop's, so it shows in full.
"""

import gc
import time

# about the loop's fastest time on a 2-core x86-64 VM with CPython 3.11
REFERENCE_S = 0.006


def _work():
    memo = {}
    total = 0
    pairs = []
    for i in range(3000):
        key = (i % 89, (i * 31) % 97)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _cell(key)
        pairs.append((hit, key))
        total += hit[0]
    pairs.sort()
    return total + len(pairs)


def _cell(key):
    a, b = key
    return (a * b) % 13, tuple(range(a % 5)), (a, b)


def sample() -> float:
    """One timing of the loop, with the collector paused so that a
    collection of the kernel's heap is not booked to the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()

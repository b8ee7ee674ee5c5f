"""A fixed measure of the shared machine's speed, independent of lfyukawa.

The speed a shared virtual machine gives the benchmark drifts by tens of
percent in phases of minutes (see README.md, "Noise").  The drift moves every
workload by about the same factor, and it shows in fresh processes touching
fresh memory, as every execution does; a long-lived process sees little of
it.  ``kernel`` does a fixed amount of each kind of work an execution does.
run.py runs this file between executions, each time in a fresh process, and
scales the reported times by ``REFERENCE_S`` over the kernel's median, so
that a phase of the machine moves them less.  The kernel never calls
lfyukawa, so no change to lfyukawa moves it.

    python3 bench/calibration.py    # prints the kernel's time in seconds
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median in a fresh process on the 2-vCPU machine the benchmark
# was built on, in a fast phase: the speed every reported time is scaled to.
REFERENCE_S = 0.2


def kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work."""
    start = time.perf_counter()
    # Interpreter: dictionary and integer work, like the runners' bookkeeping.
    table: dict[int, int] = {}
    for i in range(150_000):
        table[i % 1009] = table.get(i % 1009, 0) + i * i % 7
    # Many small numpy calls on a cache-sized register, like a 16-qubit step.
    small = np.ones(1 << 16, dtype=np.complex128)
    for _ in range(400):
        small *= 1.0000001
        small[::2] += small[1::2]
    # A freshly allocated register far larger than the caches, like the
    # 20-qubit states: page faults and memory traffic.
    big = np.ones(1 << 22, dtype=np.complex128)
    for _ in range(6):
        big *= 1.0000001
        big[::2] += big[1::2]
    elapsed = time.perf_counter() - start
    if len(table) != 1009 or not (np.isfinite(small[0]) and np.isfinite(big[0])):
        raise RuntimeError("calibration kernel produced a wrong result")
    return elapsed


if __name__ == "__main__":
    print(repr(kernel()))

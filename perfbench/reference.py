"""The reference loop: a fixed piece of pure Python that measures how fast
the processor runs right now.

On a shared host the speed of a core changes by up to 1.6x from one minute
to the next, in steps that last from seconds to minutes.  The benchmark
runs this loop next to everything it times and reports times scaled to a
processor on which the loop takes ``REFERENCE_S`` seconds.  It imports
nothing of replab, so a change to replab cannot change it.
"""

import math
import statistics
import time

# Iterations of the integer and of the float part, and about the seconds
# the median repetition takes on the machine the benchmark was tuned on
# (2-vCPU Intel Xeon VM, Python 3.11).
INT_ITERATIONS = 50_000
FLOAT_ITERATIONS = 15_000
REFERENCE_S = 0.008


def _bump(x: float) -> float:
    return math.exp(-x * x) * x


def reference_loop() -> float:
    """Seconds of the loop: integer arithmetic, then float arithmetic
    through a function call and ``math.exp``; the median of three
    repetitions, about 25 ms in all."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total, acc = 0, 0.0
        for i in range(INT_ITERATIONS):
            total += i * i
        for i in range(FLOAT_ITERATIONS):
            acc += _bump(i / FLOAT_ITERATIONS)
        times.append(time.perf_counter() - start)
    return statistics.median(times)

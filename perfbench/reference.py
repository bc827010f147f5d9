"""A fixed reference load that measures how fast the host runs right now.

The benchmark's host is a shared virtual machine whose speed drifts by
10-30 % over seconds to minutes, the same for any code running on it.
An untraced pass times this reference before its first operation and
after each one. `wall_s` scales each operation's wall time by
NOMINAL_S over the mean of the reference's times just before and just
after it, sums over the pass and takes the median over passes. Medians
over passes remove the host's second-to-second noise but not its drift
over minutes; the reference follows that drift. The reference uses
neither gyrolab nor the benchmark's inputs, so no change to gyrolab can
move it.

The load is numpy gathers on a random int32 Cayley-table-sized array, as
in the `checks` triple scans. Timed around the passes of all three
workloads, it followed their speed more closely than a pure-Python
permutation closure did (correlation 0.71-0.80 against 0.54-0.59). Its
memory stays below 2 MB.
"""

from __future__ import annotations

import time

# The reference's time on the host the benchmark was calibrated on
# (2-vCPU VM, Python 3.11, numpy 2.4); it sets the scale of wall_s.
NOMINAL_S = 0.60


def reference_seconds() -> float:
    """Wall time of one run of the reference load."""
    import numpy as np
    n = 240
    T = np.random.default_rng(1).integers(0, n, size=(n, n)).astype(np.int32)
    t0 = time.perf_counter()
    for _ in range(4):
        for x in range(n):
            np.array_equal(T[T[x][:, None], T], T[x][T])
    return time.perf_counter() - t0

"""Reference jobs that gauge the host's speed between two timed ops.

The host's speed swings by up to 2x in phases of seconds to minutes, and
every op of a run moves with it. An op's time divided by the time of a fixed
job that does not touch buslab, taken on both sides of the op, cancels most
of that swing. A slow phase slows interpreter work and memory-bound numpy
work by different factors, so each workload is divided by the jobs that do
the kind of work its ops spend their time on (`Workload.probes`).
"""
from functools import cache
from time import perf_counter_ns

import numpy as np


def interpreter() -> int:
    """ns for a fixed pure-Python loop of dict and integer work, like the
    codecs' per-word paths."""
    t0 = perf_counter_ns()
    seen, s = {}, 0
    for i in range(3000):
        x = (i * 2654435761) & 0xFFFF
        s += bin(x).count("1")
        seen[x & 255] = s
    return perf_counter_ns() - t0


@cache
def _table() -> np.ndarray:
    # 16 MiB, larger than a core's caches, as the trace kernel's arrays are
    return np.arange(1 << 21, dtype=np.int64) % 13


def memory() -> int:
    """ns for a fixed random draw, gather from a 16 MiB table and bincount,
    like the trace kernel's step over a long trace."""
    table = _table()
    t0 = perf_counter_ns()
    x = np.random.default_rng(1).integers(0, 1 << 21, size=100_000)
    np.bincount(table[x ^ (x >> 3)], minlength=13)
    return perf_counter_ns() - t0

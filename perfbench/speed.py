"""The machine's current speed, from a fixed piece of Python run between ops.

The benchmark's machine is a share of a host whose speed changes by itself:
the same pure-Python loop runs up to 40 % slower for tens of seconds at a
time, longer than a run.  So each op is preceded by one calibration chunk,
a fixed mix of the work klingen's code does (small objects with a method,
dicts keyed by tuples, a sort), and every op time is scaled by how fast the
chunks near it ran:

    scaled = raw * (REF_CHUNK_NS / median(chunk times of the nearby ops)) ** ALPHA

A scaled time is the op's time at the speed the machine had when the
chunk took REF_CHUNK_NS.  The chunk does not touch klingen, so a change to
the program moves the scaled times as much as the raw ones.

ALPHA is below 1 because the chunk feels the host's swings more than
klingen does.  Over 90 s with the chunk and five kinds of klingen op
interleaved, the log of each op's time in 25-step windows followed the log
of the chunk's time with slopes 0.75 (a CLI `dim`) to 0.98 (a skew
oracle), correlation 0.96-0.98; 0.85 is their middle.
"""

from __future__ import annotations

import gc
import statistics
import time

# One chunk's time at the reference speed: about its time on a 2-vCPU Xeon
# VM at 2.1 GHz with Python 3.11 while the host is quiet (1.6-2.0 ms while
# it is busy).
REF_CHUNK_NS = 1_000_000
ALPHA = 0.85
# The local speed is the median chunk time of the op and WINDOW ops on
# each side of it.
WINDOW = 8


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _Elem(self.v * other.v % 251)


def chunk(n: int = 1000) -> int:
    """The calibration work; returns a value so it cannot be skipped."""
    table = {}
    for i in range(n):
        table[(i * 7919) % 100003, i & 15] = [_Elem(i % 251), i * i % 97]
    keys = sorted(table, key=lambda k: (k[0] * 31 + k[1]) % 1009)
    acc, s = _Elem(1), 0
    for k in keys:
        e, v = table[k]
        acc = acc * e
        s += acc.v ^ v
    return s


def time_chunk() -> int:
    """Nanoseconds for one chunk, with the garbage collector held off so
    the program's heap and collector settings do not reach the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        chunk()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def factor(chunk_ns: list) -> float:
    """What scales a time measured among these chunks to the reference speed."""
    return (REF_CHUNK_NS / statistics.median(chunk_ns)) ** ALPHA


def local_factors(chunk_ns: list) -> list:
    """The factor for the op at each position, from the chunks around it."""
    return [factor(chunk_ns[max(0, k - WINDOW):k + WINDOW + 1])
            for k in range(len(chunk_ns))]

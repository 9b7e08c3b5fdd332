"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host, where the speed of the
same process drifts by a quarter and more within seconds (a neighbour on the
same physical core, cache pressure) and by as much again between runs.  That
drift is common to all code the interpreter runs, so the end-to-end timings
are divided by the speed of a fixed calibration kernel measured at the same
moments:

* ``Sampler`` runs the kernel every ``INTERVAL`` seconds of the process's
  CPU time, from a ``SIGPROF`` handler, while a round of the workload runs.
  Each stretch of program time between two samples is scaled by
  ``NOMINAL / k``, where ``k`` is the kernel time measured at the end of the
  stretch.  The sum is the round's time at nominal speed.
* ``normalise`` does the same for one timed stretch (a set-up), with the
  median of three kernel runs taken right after it.

The result is the time the program would take on a machine on which one
kernel run takes ``NOMINAL`` seconds.  Times are CPU time, so a moment in
which the process is not scheduled counts for neither side.

The kernel is the benchmark's own code and never changes with the program:
a subset search over closed-neighbourhood bitmasks, breadth-first searches
with dicts and a deque, and small-object churn, the three kinds of work that
biphole's hole search, constructions and sweeps do.
"""
from __future__ import annotations

import random
import signal
import statistics
import time
from collections import deque
from itertools import combinations

# The CPU time of the main thread, where the workloads and the handler run.
# The process-wide CPU clock is no use here: while an ITIMER_PROF timer is
# armed, Linux advances it only at scheduler ticks (4 ms).
clock = time.thread_time

# Kernel time on the reference machine (2-vCPU Xeon VM, CPython 3.11).
NOMINAL = 4e-3
INTERVAL = 0.05

_N = 18
_rng = random.Random(12345)
_ADJ = [0] * _N
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.3:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u
_CLOSED = [a | (1 << v) for v, a in enumerate(_ADJ)]
_NBRS = [[w for w in range(_N) if a >> w & 1] for a in _ADJ]


def _subsets() -> int:
    best = _N
    for sub in combinations(range(_N), 4):
        m = 0
        for v in sub:
            m |= _CLOSED[v]
        c = m.bit_count()
        if c < best:
            best = c
    return best


def _bfs_all() -> int:
    total = 0
    for s in range(_N):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in _NBRS[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        total += sum(dist.values())
    return total


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _churn() -> int:
    d = {}
    for i in range(2000):
        p = _Pair(i, (i, i + 1))
        d[p.b] = [p.a, p.a + 1]
    return len(d)


def kernel() -> float:
    """CPU seconds of one kernel run."""
    t0 = clock()
    _subsets()
    _bfs_all()
    _churn()
    return clock() - t0


def normalise(seconds: float) -> float:
    """``seconds`` of CPU time just spent, at nominal speed."""
    return seconds * NOMINAL / statistics.median(kernel() for _ in range(3))


class Sampler:
    """Context manager that measures the CPU time of its block at nominal
    speed (``work``), with the raw CPU time in ``raw``.

    ``install`` must have been called once; the handler stays installed
    and does nothing outside a ``with`` block, so a late signal never meets
    the default action of ``SIGPROF`` (ending the process).
    """

    _active = None

    def __init__(self):
        self.work = 0.0
        self.raw = 0.0
        self._mark = 0.0

    @classmethod
    def install(cls):
        signal.signal(signal.SIGPROF, cls._handler)

    @classmethod
    def _handler(cls, signum, frame):
        s = cls._active
        if s is not None:
            s._sample()
            signal.setitimer(signal.ITIMER_PROF, INTERVAL)

    def _sample(self):
        program = clock() - self._mark
        k = kernel()
        self.work += program * NOMINAL / k
        self.raw += program
        self._mark = clock()

    def __enter__(self):
        Sampler._active = self
        self._mark = clock()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        Sampler._active = None
        self._sample()  # closes the last stretch
        return False

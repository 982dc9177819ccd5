"""Host speed, sampled during each timed window with a fixed reference loop.

On a shared host the speed of a core drifts by tens of percent over
seconds to minutes, far more than the changes the benchmark should detect.
While a timed window (one set-up, one pass) runs, a ``SIGALRM`` interval
timer interrupts it every :data:`INTERVAL` seconds and the handler times one
repetition of :func:`reference_rep` — a fixed pure-Python loop, none of it
the library's code, mixing the kinds of work the library's kernels do
(dict and list breadth-first search, big-int bit rows).  The window's time
is then reported at a nominal host speed::

    normalised = (wall - sampling time) * REFERENCE_S / mean(repetitions)

The mean, not the median, matches a window's wall time, which integrates
every slowdown during it.  A host running 20% slow slows the reference
loop and the window alike and the figure stays put, while a change to the
library moves the window only.  Sampling inside the window, rather than
around it, tracks drift that changes within a second.

Handler time is kept out of every figure: :meth:`HostSampler.clock` is a
clock that stops while the handler runs, for timings taken inside a window.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Nominal duration of one :func:`reference_rep`, in seconds: the scale of
#: every normalised time (about the loop's median on a 2-vCPU x86 host).
REFERENCE_S = 0.0006

#: Seconds between two reference repetitions inside a timed window.
INTERVAL = 0.05


def reference_rep() -> int:
    """One repetition of the reference loop (deterministic, ~0.6 ms)."""
    n = 64
    x = 12345
    adj = []
    for _ in range(n):
        neighbours = []
        for _ in range(4):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            neighbours.append(x % n)
        adj.append(neighbours)
    total = 0
    for source in range(0, n, 8):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            following = []
            for u in frontier:
                du = dist[u] + 1
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = du
                        following.append(w)
            frontier = following
        total += len(dist)
    rows = [0] * n
    for v, neighbours in enumerate(adj):
        for w in neighbours:
            rows[v] |= 1 << w
    for source in range(0, n, 4):
        reach = frontier = 1 << source
        while frontier:
            step = 0
            while frontier:
                bit = frontier & -frontier
                step |= rows[bit.bit_length() - 1]
                frontier ^= bit
            frontier = step & ~reach
            reach |= frontier
        total += reach.bit_count()
    return total


class HostSampler:
    """Times reference repetitions from a ``SIGALRM`` handler during windows."""

    def __init__(self) -> None:
        self._spent = 0.0
        self._samples = []

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent in the handler."""
        return time.perf_counter() - self._spent

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_rep()
        end = time.perf_counter()
        self._samples.append(end - start)
        self._spent += time.perf_counter() - start

    def timed(self, call):
        """Run ``call()``; return ``(result, wall_s, factor)``.

        ``wall_s`` excludes the handler's time; ``wall_s * factor`` is the
        call's time at nominal host speed.
        """
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            start = self.clock()
            result = call()
            wall = self.clock() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not self._samples:
            self._on_alarm(None, None)
        return result, wall, REFERENCE_S / statistics.mean(self._samples)

"""Host-speed calibration: a fixed memory-bound loop timed next to each
measurement.

On a shared host the simulator's speed drifts by up to 2x over tens of
seconds, mostly through contention for caches and memory bandwidth
(CPU time drifts as much as wall time, so the process is not simply
descheduled).  A fixed pass that chases pointers through 60k objects
and looks up 40k dictionary keys slows down with that drift.  The
benchmark therefore takes a calibration point (the median of three
passes) before and after every timed iteration, and reports host times
scaled towards the speed at which a pass takes :data:`REFERENCE_S`: an
iteration by the mean of the points on either side, a set-up probe by
the run's median point, each through :data:`ELASTICITY`.  The raw
figures are printed next to the scaled ones.  A point is never taken
right after the process sat idle: passes run up to 3x slower then.

The pass runs in the measuring process, on the same CPU as the
simulator: a pass in a helper process tracked the simulator's speed
less closely.  Its data (about 17 MB) is left out of ``peak_rss_mb``.
"""

from __future__ import annotations

import os
import random
import time
from typing import List, Optional

from fluxbench.stats import median

#: Seconds one pass takes on the reference host (the 2-core x86-64 VM
#: the benchmark's bounds were set on; the median over its runs).
REFERENCE_S = 0.030
#: Passes per calibration point; the point is their median.
PASSES = 3
#: How much of the pass's speed change a simulator time is credited
#: with: the slope of log(simulator time) on log(pass time).  It measured
#: 0.3 (fleet) to 0.5 (sweep) on the reference host; a pass swings about
#: twice as far as the simulator does.
ELASTICITY = 0.5

NODES = 60_000
KEYS = 40_000


class _Node:
    __slots__ = ("value", "label", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.label = str(value)
        self.next: Optional["_Node"] = None


class Pass:
    """The calibration data (a shuffled linked ring and a dict), seeded."""

    def __init__(self, seed: int = 1) -> None:
        rng = random.Random(seed)
        nodes = [_Node(i) for i in range(NODES)]
        order = list(range(NODES))
        rng.shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
        self.head = nodes[order[0]]
        self.table = {f"key{i}": i for i in range(KEYS)}
        self.keys = list(self.table)
        rng.shuffle(self.keys)

    def run(self) -> float:
        """Seconds for one full lap of the ring and one lookup per key."""
        start = time.perf_counter()
        node, total = self.head, 0
        for _ in range(NODES):
            total += node.value
            node = node.next
        table = self.table
        for key in self.keys:
            total += table[key]
        return time.perf_counter() - start


class Calibrator:
    """Times passes next to the measurements and turns them into factors.

    :meth:`factor` scales a measurement to reference speed from the
    passes on either side of it.  The pass data stays resident for the
    whole run; :attr:`resident_bytes` is what building it added to the
    process's resident set, so peak-memory figures can leave it out.
    """

    def __init__(self) -> None:
        before = resident_bytes()
        self._data = Pass()
        self.resident_bytes = resident_bytes() - before
        #: Every calibration point measured, in order.
        self.points: List[float] = []
        self.mark()

    def mark(self) -> None:
        """Take a calibration point (the median of :data:`PASSES`
        passes); call it right before a series of measurements."""
        self.points.append(median([self._data.run()
                                   for _ in range(PASSES)]))

    def factor(self) -> float:
        """The factor to reference speed for a measurement that ended
        just now: from a new point, averaged with the previous one."""
        self.mark()
        return scale((self.points[-2] + self.points[-1]) / 2)

    def run_factor(self) -> float:
        """The factor to reference speed for the run as a whole, from
        the median of every point taken so far."""
        return scale(median(self.points))


def scale(point: float) -> float:
    """The factor that scales a time measured at ``point`` speed."""
    return (REFERENCE_S / point) ** ELASTICITY


def resident_bytes() -> int:
    """This process's current resident set size."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

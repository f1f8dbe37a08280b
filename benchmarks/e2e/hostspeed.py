"""Host seconds on a shared box: sample the host's speed while measuring.

The reference box is a shared VM whose speed drifts: for minutes at a time
everything runs 20-30 % slower (neighbours on the physical host;
``process_time`` inflates with wall time, steal reads 0).  No statistic of a
25 s measurement filters a slowdown that outlasts it, so the host metrics are
reported in **reference seconds**: while measured code runs, a ``SIGALRM``
every ``PERIOD_S`` runs a fixed kernel in the same thread, on the same core,
and times it.  An interval's

* net time   = its wall (or CPU) seconds minus the seconds spent in the kernel,
* host speed = ``REFERENCE_KERNEL_S`` / median kernel time within it,
* reference seconds = net time x host speed.

On a quiet reference box host speed is 1 and reference seconds are seconds.
The kernel is a miniature event simulation of its own (a heap of timed
events, generator processes, a dict of per-process state): of the kernels
tried, this instruction mix tracked the workloads' own slowdown best
(README.md).  Its working set is small (~250 kB), so how fast it runs
depends little on how much memory the measured program touches between two
runs of it, and it touches nothing of ``repro``: a change to the program
moves the metrics, a change of the host's mood moves them far less.  Raw
seconds and the host speed stay in every repetition record.
"""

from __future__ import annotations

import signal
import statistics
import time
from heapq import heapify, heappop, heappush
from typing import Dict, List, Tuple

#: wall seconds between two kernel runs (the kernel takes ~3 % of the time)
PERIOD_S = 0.05
#: what one kernel run takes on the reference box when it is quiet
REFERENCE_KERNEL_S = 0.0012
PROCESSES = 512
EVENTS_PER_TICK = 1200

_ticks: List[float] = []  # wall seconds of every kernel run so far
_spent = [0.0, 0.0]  # wall and CPU seconds spent in kernel runs so far
_in_tick = [False]
_heap: List[Tuple[float, int, "_Process"]] = []
_seq = [0]


class _Process:
    """One process of the kernel's miniature simulation."""

    __slots__ = ("uid", "count", "state", "gen")

    def __init__(self, i: int, table: Dict[str, Tuple[int]]) -> None:
        self.uid = "p%06d" % i
        self.count = i
        self.state = table[self.uid] = (i,)
        self.gen = self._body(table)

    def _body(self, table: Dict[str, Tuple[int]]):
        while True:
            self.count += 1
            self.state = table[self.uid]
            table[self.uid] = (self.count,)
            yield (self.count * 7 & 63) + 1.5


def _kernel() -> None:
    """The next EVENTS_PER_TICK events of the miniature simulation."""
    heap, seq = _heap, _seq[0]
    for _ in range(EVENTS_PER_TICK):
        t, _, process = heappop(heap)
        seq += 1
        heappush(heap, (t + next(process.gen), seq, process))
    _seq[0] = seq


def _tick(signum, frame) -> None:
    if _in_tick[0]:  # a stall longer than PERIOD_S delivered the next alarm
        return
    _in_tick[0] = True
    wall, cpu = time.perf_counter(), time.process_time()
    _kernel()
    wall = time.perf_counter() - wall
    _ticks.append(wall)
    _spent[0] += wall
    _spent[1] += time.process_time() - cpu
    _in_tick[0] = False


def start() -> None:
    table: Dict[str, Tuple[int]] = {}
    _heap[:] = [((i * 31) % 997 * 0.1, i, _Process(i, table))
                for i in range(PROCESSES)]
    heapify(_heap)
    _seq[0] = PROCESSES
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


Mark = Tuple[float, float, float, float, int]


def mark() -> Mark:
    return (time.perf_counter(), time.process_time(), _spent[0], _spent[1],
            len(_ticks))


def since(m: Mark) -> Dict[str, float]:
    """The interval since *m*: ``wall_s``/``cpu_s`` in reference seconds, the
    raw and net seconds they come from, and the host speed.

    Host speed is 1.0 when no kernel ran in the interval (sampling is off in
    a traced repetition, whose spans are raw seconds).
    """
    now = mark()
    ticks = _ticks[m[4]:now[4]]
    speed = REFERENCE_KERNEL_S / statistics.median(ticks) if ticks else 1.0
    net_wall_s = now[0] - m[0] - (now[2] - m[2])
    net_cpu_s = now[1] - m[1] - (now[3] - m[3])
    return {"wall_s": net_wall_s * speed, "cpu_s": net_cpu_s * speed,
            "net_wall_s": net_wall_s, "raw_wall_s": now[0] - m[0],
            "raw_cpu_s": now[1] - m[1], "host_speed": speed}

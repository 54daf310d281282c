"""Host speed, measured during each op, for timing ops at nominal speed.

On a shared 2-CPU virtual machine the same Python work runs up to 2.5x
slower while a neighbour is busy; the speed of each vCPU changes within
a second, independently of the other one, and stays mostly slow for
minutes at a time.  Raw walls of ten runs of one workload spread by
0.15-1.2 of their median (quartile distance), and CPU time moves with
wall (the slowdown is not steal time), so it is no escape.

So the benchmark times every op together with a fixed reference — pure
Python that imports nothing from the program, part interpreter-bound and
part memory-bound like the program's own work — run on the same CPU
right before the op, right after it, and every :data:`SAMPLE_EVERY_S`
during it (from a ``SIGALRM`` handler, in the benchmark's process).  An
op's time at nominal speed is its wall, minus the CPU time of the
samples taken during it, times the mean of the samples' speeds
(``REF_NOMINAL_S`` over the reference's CPU time).  A change to the
program cannot move the reference; a slow host slows both, at the same
moment, and cancels out.

Measured on that host over three minutes of a warm file hit and an
in-memory hit alternating with the reference, the medians of 15-second
windows spread by 0.13-0.54 raw and by 0.02-0.06 after this correction.
A correction with one factor per run, from samples taken only between
ops, left 0.06-0.09: it cannot see the speed an op actually ran at.

The samples run in the benchmark's process, so a program that leaves a
thread spinning in that process would slow the reference too and hide
the cost; the in-process workloads start no threads today.  A sample
taken while a child process runs on the same CPU shares the CPU with
it: the sample's speed is taken from its own CPU time, and only that CPU
time is subtracted from the op's wall.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import signal
import statistics
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["REF_NOMINAL_S", "HostSpeed", "Timing", "reference"]

#: Reference CPU time at nominal speed (a quiet 2-CPU host, Python 3.11).
REF_NOMINAL_S = 0.015
#: Samples during an op (and in the background sampler) this far apart.
SAMPLE_EVERY_S = 0.5
#: A sample that ended less than this ago still serves as "before".
REUSE_S = 0.02


class _Item:
    __slots__ = ("name", "weight")

    def __init__(self, name: str, weight: int):
        self.name = name
        self.weight = weight


def reference() -> int:
    """Fixed work: formatting, objects and a keyed sort (interpreter
    bound), then two walks over ~5 MB of dicts and frozensets (memory
    bound).  The walked table is built once and kept, so a sample taken
    at the program's peak adds little to its resident set.  The cyclic
    collector is off meanwhile, so the time does not depend on how many
    objects the workload keeps alive."""
    sets, order = _table()
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {}
        items = []
        for index in range(4000):
            name = f"n{index % 1500}_{index * 7919 % 613}"
            table[name] = table.get(name, 0) + index
            items.append(_Item(name, index * 31 % 257))
        items.sort(key=lambda item: (item.weight, item.name))
        total = 0
        for _ in range(2):
            for key in order:
                total += len(sets[key] & {1, 2, 3})
        return total + len(table)
    finally:
        if enabled:
            gc.enable()


@functools.lru_cache(maxsize=None)
def _table() -> Tuple[Dict[str, frozenset], List[str]]:
    sets = {
        f"k{i}": frozenset((i, i * 3 % 1000003, i * 7 % 999983))
        for i in range(15000)
    }
    return sets, sorted(sets, key=lambda key: hash(key) & 0xFFFF)


def _time_reference(cpu: int) -> float:
    """CPU time of one :func:`reference` run on ``cpu`` (the calling
    thread is pinned there meanwhile)."""
    allowed = os.sched_getaffinity(0)
    try:
        if allowed != {cpu}:
            os.sched_setaffinity(0, {cpu})
        start = time.thread_time()
        reference()
        return time.thread_time() - start
    finally:
        if os.sched_getaffinity(0) != allowed:
            os.sched_setaffinity(0, allowed)


class Timing:
    """One op's times, filled in when its :meth:`HostSpeed.op` ends."""

    __slots__ = ("wall", "nominal", "samples")

    def __init__(self):
        self.wall = 0.0  # seconds, without the samples taken during it
        self.nominal = 0.0  # seconds at nominal host speed
        self.samples = 0


class HostSpeed:
    """Reference samples of one run, on the CPUs the workload runs on.

    The two vCPUs change speed independently, so a sample times the
    reference on each CPU in ``cpus`` in turn (the calling thread is
    pinned there meanwhile) and its speed is their mean.  ``speeds``
    keeps every sample's speed for the run summary.  A disabled one (the
    traced run, whose spans must not contain samples) takes none and
    reports raw walls as nominal.
    """

    def __init__(self, cpus: Optional[Sequence[int]] = None,
                 enabled: bool = True):
        self.enabled = enabled
        self.cpus = sorted(cpus if cpus is not None
                           else os.sched_getaffinity(0))
        self.speeds: List[float] = []
        #: Per CPU, (perf_counter at the end, speed) of background samples.
        self.timeline: Dict[int, List[Tuple[float, float]]] = {}
        self._last: Optional[Tuple[float, float]] = None
        if enabled:
            _table()  # part of the baseline, not of the first sample

    # ------------------------------------------------------------------
    def sample(self) -> Tuple[float, float]:
        """Time the reference once per CPU; (mean speed, CPU time spent)."""
        timed = [_time_reference(cpu) for cpu in self.cpus]
        spent = sum(cpu_s for cpu_s in timed)
        speed = statistics.fmean(REF_NOMINAL_S / cpu_s for cpu_s in timed)
        self.speeds.append(speed)
        self._last = (time.perf_counter(), speed)
        return speed, spent

    def _before(self) -> float:
        if self._last is not None and (
            time.perf_counter() - self._last[0] < REUSE_S
        ):
            return self._last[1]
        return self.sample()[0]

    @contextlib.contextmanager
    def op(self, during: bool = True) -> Iterator[Timing]:
        """Time the body at nominal speed.

        Samples before and after the body and, when ``during``, every
        :data:`SAMPLE_EVERY_S` while it runs (``SIGALRM``; the main
        thread only).  ``during=False`` is for bodies whose work runs on
        other threads of this process, which a sample would stall.
        """
        timing = Timing()
        if not self.enabled:
            start = time.perf_counter()
            yield timing
            timing.wall = timing.nominal = time.perf_counter() - start
            return
        speeds = [self._before()]
        spent = [0.0]

        def on_alarm(_signum, _frame):
            speed, cpu_s = self.sample()
            speeds.append(speed)
            spent[0] += cpu_s

        previous = None
        if during:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            wall = time.perf_counter() - start
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        speeds.append(self.sample()[0])
        timing.wall = wall - spent[0]
        timing.nominal = timing.wall * statistics.fmean(speeds)
        timing.samples = len(speeds)

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def background(self) -> Iterator[None]:
        """Sample from a thread while the body runs, one CPU at a time so
        that only one is disturbed, each every :data:`SAMPLE_EVERY_S`,
        into :attr:`timeline` (see :meth:`speed_at`).  The interpreter
        switches threads every millisecond meanwhile, so a sample holds
        up the body's threads for at most that long at a time."""
        if not self.enabled:
            yield
            return
        stop = threading.Event()

        def record(cpu: int) -> None:
            speed = REF_NOMINAL_S / _time_reference(cpu)
            self.timeline.setdefault(cpu, []).append(
                (time.perf_counter(), speed))

        def sampler():
            turn = 0
            while not stop.wait(SAMPLE_EVERY_S / len(self.cpus)):
                record(self.cpus[turn % len(self.cpus)])
                turn += 1

        for cpu in self.cpus:
            record(cpu)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(0.001)
        thread = threading.Thread(target=sampler, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
            sys.setswitchinterval(switch)
        for cpu in self.cpus:
            record(cpu)

    def speed_at(self, moment: float) -> float:
        """Mean over the CPUs of the background samples on either side
        of ``moment`` (the nearest one at the ends of a CPU's samples)."""
        if not self.enabled:
            return 1.0
        if not self.timeline:
            raise ValueError("no background samples")
        speeds = []
        for line in self.timeline.values():
            after = next(
                (index for index, (end, _) in enumerate(line)
                 if end >= moment),
                len(line) - 1,
            )
            speeds.append(statistics.fmean(
                speed for _, speed in line[max(0, after - 1):after + 1]))
        return statistics.fmean(speeds)

    def mean_speed(self) -> float:
        return statistics.fmean(self.speeds) if self.speeds else 1.0

"""Child processes the benchmark starts, each in its own process group.

Every child (a ``repro identify`` run, a ``repro serve`` server with its
pool workers, the input builder) is started with ``start_new_session``,
so the child and everything it forks share one process-group id equal to
the child's pid.  :class:`ProcessGroups` remembers those groups and
tears each one down the same way: SIGTERM to the whole group (a server
drains on it), a bounded wait, then SIGKILL to whatever is left.

The benchmark also makes itself a *child subreaper* (Linux
``PR_SET_CHILD_SUBREAPER``): a pool worker orphaned by a killed server is
re-parented to the benchmark instead of to the container's init, so the
benchmark can reap it and then prove with ``killpg(pgid, 0)`` that the
group is empty.  The same adoption covers groups the benchmark never
spawned itself: a child that starts its own session-led children (the
input builder starts a ``repro serve``) and then dies leaves them
orphaned, and :meth:`ProcessGroups.stop_all` tears down the group of
every process still adopted by the benchmark.  A group that outlives its
teardown is an error, never a warning — the run fails.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import os
import signal
import subprocess
import time
from typing import Dict, List, Optional, Sequence

__all__ = [
    "GroupSurvived",
    "ProcessGroups",
    "become_subreaper",
    "children",
    "group_alive",
]

_PR_SET_CHILD_SUBREAPER = 36


class GroupSurvived(RuntimeError):
    """A process group still had members after its teardown."""


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux only); ``False`` if unsupported."""
    name = ctypes.util.find_library("c")
    if name is None:
        return False
    try:
        libc = ctypes.CDLL(name, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [
        ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
        ctypes.c_ulong, ctypes.c_ulong,
    ]
    prctl.restype = ctypes.c_int
    return prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def group_alive(pgid: int) -> bool:
    """Whether any process (zombies included) is still in group ``pgid``."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def children(parent: int) -> List[int]:
    """Pids (zombies included) whose parent is ``parent``, from ``/proc``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name is in parentheses and may hold spaces; the
        # fields after it are: state, ppid, ...
        fields = stat.rpartition(")")[2].split()
        if len(fields) > 1 and int(fields[1]) == parent:
            pids.append(int(entry))
    return pids


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


class ProcessGroups:
    """Spawns children in fresh sessions and guarantees their teardown.

    ``peak_rss_kb`` is the largest ``ru_maxrss`` among the reaped
    children (each child's figure covers the descendants it reaped, and
    orphans the benchmark reaped itself are counted directly).
    """

    def __init__(self, grace_s: float = 10.0):
        self.grace_s = grace_s
        self._live: Dict[int, subprocess.Popen] = {}
        self.peak_rss_kb = 0

    # ------------------------------------------------------------------
    def spawn(self, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        """``Popen(argv)`` in a new session; the group id is its pid."""
        proc = subprocess.Popen(list(argv), start_new_session=True, **kwargs)
        self._live[proc.pid] = proc
        return proc

    def run(
        self, argv: Sequence[str], timeout: float, **kwargs
    ) -> int:
        """Spawn, wait up to ``timeout`` seconds, reap; the exit code.

        A child still running at the deadline is torn down and reported
        as exit code ``-SIGKILL``.  A child that exits but leaves a
        process behind in its group fails with :class:`GroupSurvived`
        (after the leftover is killed and reaped).
        """
        proc = self.spawn(argv, **kwargs)
        code = self._wait(proc, timeout)
        leftover = code is not None and self._reap_group(proc.pid, 1.0)
        self.stop(proc)
        if leftover:
            raise GroupSurvived(
                f"process group {proc.pid} kept running after its leader "
                f"exited"
            )
        return -signal.SIGKILL if code is None else code

    def stop(self, proc: subprocess.Popen) -> Optional[int]:
        """SIGTERM the group, wait, SIGKILL the rest; verify it is gone."""
        pgid = proc.pid
        try:
            code = proc.returncode
            if code is None:
                _signal_group(pgid, signal.SIGTERM)
                code = self._wait(proc, self.grace_s)
            if code is None or group_alive(pgid):
                _signal_group(pgid, signal.SIGKILL)
                if code is None:
                    code = self._wait(proc, self.grace_s)
            if self._reap_group(pgid, self.grace_s):
                raise GroupSurvived(
                    f"process group {pgid} outlived SIGKILL"
                )
        finally:
            self._live.pop(pgid, None)
        return code

    def stop_all(self) -> List[int]:
        """Tear down every live group, then every group of a process the
        benchmark adopted; the pgids that survived."""
        survivors = []
        for proc in list(self._live.values()):
            try:
                self.stop(proc)
            except GroupSurvived:
                survivors.append(proc.pid)
        return survivors + self._stop_adopted()

    def _stop_adopted(self) -> List[int]:
        """Stop the group of each remaining child of this process.

        After :meth:`stop_all` has stopped every spawned group, a child
        left is an orphan re-parented to the (subreaper) benchmark, in a
        group the benchmark did not record.  Stopping that group may
        orphan further descendants, so this repeats until no child is
        left; the pgids that outlived SIGKILL.
        """
        survivors: List[int] = []
        own = os.getpgrp()
        for _ in range(8):
            strays = children(os.getpid())
            if not strays:
                break
            for pid in strays:
                try:
                    pgid = os.getpgid(pid)
                except ProcessLookupError:
                    pgid = None
                if pgid is None or pgid == own:
                    # Never signal the benchmark's own group: kill and
                    # reap the one process.
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                    with contextlib.suppress(ChildProcessError):
                        os.waitpid(pid, 0)
                    continue
                _signal_group(pgid, signal.SIGTERM)
                if self._reap_group(pgid, self.grace_s):
                    _signal_group(pgid, signal.SIGKILL)
                    if self._reap_group(pgid, self.grace_s):
                        survivors.append(pgid)
        if children(os.getpid()):
            survivors.append(-1)
        return sorted(set(survivors))

    @property
    def live_groups(self) -> List[int]:
        return sorted(self._live)

    # ------------------------------------------------------------------
    def _wait(
        self, proc: subprocess.Popen, timeout: float
    ) -> Optional[int]:
        """Reap ``proc`` within ``timeout`` (recording its rusage)."""
        if proc.returncode is not None:
            return proc.returncode
        deadline = time.monotonic() + timeout
        while True:
            try:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            except ChildProcessError:
                # Reaped elsewhere (a group sweep); Popen knows no code.
                proc.returncode = proc.returncode or 0
                return proc.returncode
            if pid == proc.pid:
                self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.01)

    def _reap_group(self, pgid: int, timeout: float) -> bool:
        """Reap group ``pgid``'s orphans re-parented to this process,
        for up to ``timeout`` seconds; whether the group is still alive."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                pid, _status, usage = os.wait4(-pgid, os.WNOHANG)
            except ChildProcessError:
                pid = 0
            if pid:
                self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
                continue
            if not group_alive(pgid):
                return False
            if time.monotonic() >= deadline:
                return True
            time.sleep(0.02)

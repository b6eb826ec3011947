"""CPU time and peak RSS of the benchmark process and its children.

``resource.getrusage`` covers this process and every child it has
reaped (the cold pool joins its shard processes before a job returns).
Children that are still alive, such as the serve daemon and its warm
workers, are read from ``/proc/<pid>/stat`` and ``/proc/<pid>/status``.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Dict, Iterable, List, Set

_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", "rb") as stream:
        raw = stream.read().decode("ascii", "replace")
    # The command name may hold spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2:].split()


def process_age_s() -> float:
    """Seconds since this process started (interpreter start included)."""
    try:
        start_ticks = int(_stat_fields(os.getpid())[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / _TICK
    except (OSError, ValueError, IndexError, AttributeError):
        return time.process_time()


def steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine's CPUs
    since boot (all CPUs; 0 where ``/proc/stat`` has no steal field)."""
    try:
        with open("/proc/stat", encoding="ascii") as stream:
            fields = stream.readline().split()
        return int(fields[8]) / _TICK
    except (OSError, ValueError, IndexError):
        return 0.0


def descendants(roots: Iterable[int]) -> Set[int]:
    """Every live process below ``roots`` (roots included)."""
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parent_of[int(entry)] = int(_stat_fields(int(entry))[1])
            except (OSError, ValueError, IndexError):
                continue
    found = {pid for pid in roots if pid in parent_of}
    grew = True
    while grew:
        grew = False
        for pid, parent in parent_of.items():
            if parent in found and pid not in found:
                found.add(pid)
                grew = True
    return found


class ProcessTree:
    """CPU and RSS accounting over this process plus live child trees."""

    def __init__(self, roots: Iterable[int] = ()) -> None:
        self.roots = list(roots)
        self.pids: Set[int] = set()
        self.refresh()

    def refresh(self) -> None:
        self.pids = descendants(self.roots) if self.roots else set()

    def _live_cpu_s(self) -> float:
        total = 0
        gone = False
        for pid in self.pids:
            try:
                fields = _stat_fields(pid)
            except OSError:
                # Reaped: its time now sits in its parent's cutime/cstime.
                gone = True
                continue
            # utime, stime, cutime, cstime
            total += sum(int(value) for value in fields[11:15])
        if gone:
            self.refresh()
        return total / _TICK

    def cpu_s(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (own.ru_utime + own.ru_stime + reaped.ru_utime
                + reaped.ru_stime + self._live_cpu_s())

    def peak_rss_mb(self) -> float:
        """Largest RSS high-water mark of any process in the tree, MiB."""
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        for pid in self.pids:
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as stream:
                    for line in stream:
                        if line.startswith("VmHWM:"):
                            peak_kb = max(peak_kb, int(line.split()[1]))
            except (OSError, ValueError):
                continue
        return peak_kb / 1024.0

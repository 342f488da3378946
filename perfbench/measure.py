"""Measurement helpers: summary statistics, process-tree peak RSS, and a
clock that takes hypervisor steal out of wall time."""

from __future__ import annotations

import os
import statistics
import threading
import time

#: tail percentiles tried, highest first
_TAILS = (99.9, 99.0, 90.0, 75.0)


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return float(ordered[int(rank) - 1])


def describe(values: list[float]) -> str:
    """``"p50 X, pNN Y (n=N)"`` — the median plus the highest percentile
    with at least ten samples beyond it, when there is one."""
    n = len(values)
    if not n:
        return "n=0"
    text = f"p50 {median(values):.4g}"
    for p in _TAILS:
        if n * (100 - p) / 100 >= 10:
            text += f", p{p:g} {percentile(values, p):.4g}"
            break
    return f"{text} (n={n})"


def cpu_times() -> list[int]:
    """The host's aggregate ``cpu`` line of /proc/stat, in clock ticks."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the CPU time this machine wanted that the hypervisor gave
    to other guests: steal / (user + nice + system + irq + softirq + steal).

    Idle and I/O-wait ticks are left out: an idle CPU is not stolen from.
    Reads 0 on bare metal.
    """
    d = [b - a for a, b in zip(before, after)]
    if len(d) < 8:
        return 0.0
    wanted = d[0] + d[1] + d[2] + d[5] + d[6] + d[7]
    return d[7] / wanted if wanted > 0 else 0.0


class NetClock:
    """Wall time of a block, and that wall net of hypervisor steal.

    On a shared virtual machine other guests take a share of the CPU
    that swings from minute to minute, and wall-clock figures of
    identical code swing with it.  ``net_s = wall_s * (1 - steal)``
    removes that share; on a dedicated machine it equals ``wall_s``.
    """

    def __enter__(self) -> "NetClock":
        self._cpu0 = cpu_times()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.steal = steal_share(self._cpu0, cpu_times())
        self.net_s = self.wall_s * (1.0 - self.steal)


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return out


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant."""
    pids, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        pids.append(pid)
        frontier.extend(_children(pid))
    return pids


_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes(pids: list[int]) -> int:
    """Summed resident set size of ``pids`` (vanished ones count 0)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
                total += int(fh.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            pass
    return total


class TreeSampler:
    """Samples a process tree's summed RSS until stopped; keeps the peak
    and every pid it saw (so leftovers can be reaped)."""

    def __init__(self, root: int, interval: float = 0.05):
        self.root = root
        self.interval = interval
        self.peak_bytes = 0
        self.seen: set[int] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def _run(self) -> None:
        while True:
            pids = tree_pids(self.root)
            self.seen.update(pids)
            self.peak_bytes = max(self.peak_bytes, rss_bytes(pids))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "TreeSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1024.0 * 1024.0)

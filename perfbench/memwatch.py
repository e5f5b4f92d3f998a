"""Peak memory of a Ray driver and the ``ray::`` processes below it.

    python3 -m perfbench.memwatch <driver pid>

Every ``INTERVAL_S`` it sums the resident set of the driver and of every
``ray::`` process in the driver's process tree, until its stdin closes;
it then prints the largest sum, in MB. It runs as a process of its own,
so sampling never holds the driver's GIL. This module imports only the
standard library.
"""

from __future__ import annotations

import os
import select
import sys
import time

INTERVAL_S = 0.02
RESCAN_S = 0.25        # how often the process tree is listed again
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 1024 ** 2


def children() -> dict[int, list[int]]:
    """ppid -> pids, over every process in /proc."""
    out: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        out.setdefault(ppid, []).append(int(d))
    return out


def descendants(pid: int) -> list[int]:
    kids, out = children(), []
    todo = list(kids.get(pid, ()))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, ()))
    return out


def ray_processes(pid: int) -> list[int]:
    """Processes below ``pid`` that Ray has named ``ray::...``: its
    workers and actors."""
    out = []
    for p in descendants(pid):
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::"):
                    out.append(p)
        except OSError:          # exited since the listing
            continue
    return out


def rss_mb(pid: int) -> float:
    """Resident set of a process; 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE_MB
    except (OSError, IndexError, ValueError):
        return 0.0


def watch(driver: int, stop) -> float:
    """Largest Σ resident set seen until ``stop`` (a file) is readable."""
    peak, pids, rescan = 0.0, [], 0.0
    while True:
        now = time.monotonic()
        if now >= rescan:
            pids, rescan = ray_processes(driver), now + RESCAN_S
        peak = max(peak, rss_mb(driver) + sum(rss_mb(p) for p in pids))
        if select.select([stop], [], [], INTERVAL_S)[0]:
            return peak


if __name__ == "__main__":
    print(f"{watch(int(sys.argv[1]), sys.stdin):.6f}")

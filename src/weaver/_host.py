"""What the host grants this process, read without numpy."""

from __future__ import annotations

import os


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask (``taskset`` narrows
    it), or the machine's count on platforms without one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1

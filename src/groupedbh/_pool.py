"""Forked worker pools over the CPUs of this process's affinity mask.

`multiprocessing` is imported only when a pool is made, so a command that
runs in one process never loads it.
"""

from __future__ import annotations

import os

shared = None  # in a worker: the value its pool was made with


def cpu_count() -> int:
    """The number of CPUs this process may run on (`taskset` limits it)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_pool(processes: int, value):
    """A pool of `processes` forked workers, each of which sees `value` as
    `_pool.shared`. Forked workers inherit `value` and every module loaded
    here rather than unpickle or import them again; a pool forks its workers
    before it starts its own threads. Use it in a `with` block, which stops
    the workers on the way out, also on an error."""
    import multiprocessing

    return multiprocessing.get_context("fork").Pool(processes, _share, (value,))


def _share(value) -> None:
    global shared
    shared = value

"""An ordered map over blocks of work, on forked workers, one per CPU of this
process's affinity mask.

`multiprocessing` is imported only when workers are started, so a command
that runs in one process never loads it.
"""

from __future__ import annotations

import contextlib
import os
from collections import deque
from itertools import islice

_work = None  # in a worker: the (fn, shared) its pool was started with


def cpu_count() -> int:
    """The number of CPUs this process may run on (`taskset` limits it)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextlib.contextmanager
def imap(fn, shared, items, depth: int | None = None):
    """Yield an iterator over fn(shared, item) for each of the sized
    ``items``, in order.

    With fewer than two CPUs, or fewer than two items, the calls run here,
    one at a time as the iterator is read. Otherwise they run on
    min(cpu_count(), len(items)) forked workers, which inherit fn, shared
    and every module loaded here rather than unpickle or import them again;
    each item is pickled, and at most ``depth`` items (2 x workers by
    default, which bounds the results held) are handed out ahead of the
    consumer. The workers are forked before the pool starts its own
    threads. When the block exits, also on an error, the items not yet
    started are dropped, the workers finish the ones they hold and exit, and
    are joined. No worker is killed: `multiprocessing.Pool.terminate` can
    kill one while it holds a lock of the result queue, and then hang on
    that lock."""
    processes = min(cpu_count(), len(items))
    if processes < 2:
        yield (fn(shared, item) for item in items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(processes, multiprocessing.get_context("fork"), _start, ((fn, shared),))
    try:
        yield _ordered(pool, iter(items), 2 * processes if depth is None else depth)
    finally:
        pool.shutdown(cancel_futures=True)


def _ordered(pool, items, depth: int):
    """Results of the items in order, with at most ``depth`` of them
    submitted and not yet handed on; the next item is submitted while the
    workers run."""
    pending = deque(pool.submit(_call, item) for item in islice(items, depth))
    while pending:
        yield pending.popleft().result()
        pending.extend(pool.submit(_call, item) for item in islice(items, 1))


def _start(work) -> None:
    global _work
    _work = work


def _call(item):
    fn, shared = _work
    return fn(shared, item)

"""An ordered map over blocks of work, on forked workers, one per CPU of this
process's affinity mask.

Each worker is forked with two pipes of its own: on one the parent writes
it an item, on the other the worker writes back fn's result or error, each
message a pickle behind its 8-byte length. A worker holds one item at a
time, and the parent hands the next item to whichever worker it has just
read a result from, so a long item never holds up the items behind it. The
pool is built on `os.fork` and `os.pipe` alone: no command loads
`multiprocessing` or `concurrent.futures`, and the parent starts no thread.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
from collections import deque
from itertools import islice


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
    each item and each result is pickled, and at most ``depth`` items (2 x
    workers by default, which bounds the results held) are drawn ahead of
    the consumer. An error that fn raises is raised here; one that does not
    pickle comes as a RuntimeError with its repr. A worker that ends while
    it holds an item makes the iterator raise RuntimeError with its exit
    status. When the block exits, also on an error, the items not yet
    handed out are dropped, and the workers are told to stop by the close
    of their pipes: an idle worker reads the end of its item pipe, and one
    still writing a result has its write fail. Each is then waited for. No
    worker is killed."""
    processes = min(cpu_count(), len(items))
    if processes < 2:
        yield (fn(shared, item) for item in items)
        return
    workers = []  # (pid, item pipe, result pipe): the parent's ends
    try:
        for _ in range(processes):
            workers.append(_fork(fn, shared, workers))
        yield _ordered(workers, iter(items), 2 * processes if depth is None else depth)
    finally:
        for _, *ends in workers:
            for fd in ends:
                os.close(fd)
        for pid, *_ in workers:
            with contextlib.suppress(ChildProcessError):  # reaped when it died holding an item
                os.waitpid(pid, 0)


def _fork(fn, shared, siblings) -> tuple[int, int, int]:
    """Fork a worker running fn(shared, item) on each item it is sent;
    (its pid, the write end of its item pipe, the read end of its result
    pipe)."""
    items, to_worker = os.pipe()
    from_worker, results = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (items, to_worker, from_worker, results):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:  # a sibling's ends held here would hide the parent's close from it
            for fd in (to_worker, from_worker, *(fd for _, *ends in siblings for fd in ends)):
                os.close(fd)
            status = _serve(fn, shared, items, results)
        finally:
            os._exit(status)  # silently, and never back into the parent's code
    os.close(items)
    os.close(results)
    return pid, to_worker, from_worker


def _serve(fn, shared, items: int, results: int) -> int:
    """A worker's loop: each item in, its (True, result) or (False, error)
    out, until the item pipe ends or the parent closed the result pipe;
    then exit status 0."""
    try:
        while (item := _receive(items)) is not None:
            try:
                message = pickle.dumps((True, fn(shared, pickle.loads(item))))
            except Exception as error:
                message = _error_message(error)
            _send(results, message)
    except BrokenPipeError:  # the parent left before reading the result
        pass
    return 0


def _error_message(error: Exception) -> bytes:
    """(False, error) pickled, or (False, RuntimeError(repr(error))) when the
    error does not survive a round trip through pickle."""
    try:
        message = pickle.dumps((False, error))
        pickle.loads(message)
    except Exception:
        message = pickle.dumps((False, RuntimeError(repr(error))))
    return message


def _ordered(workers, items, depth: int):
    """Results of the items in order, with at most ``depth`` of them drawn
    and not yet handed on. Each idle worker is sent the next item drawn; a
    result that comes before its turn is held."""
    todo = deque(islice(items, depth))  # drawn, not yet sent
    sent = turn = 0  # items sent, results handed on
    idle = list(workers)
    busy = {}  # result pipe -> (worker, index of its item)
    done = {}  # index -> message, held until its turn
    poller = select.poll()
    while turn < sent + len(todo):
        while idle and todo:
            worker = idle.pop()
            try:
                _send(worker[1], pickle.dumps(todo.popleft()))
            except BrokenPipeError:
                raise _died(worker[0]) from None
            busy[worker[2]] = worker, sent
            poller.register(worker[2], select.POLLIN)
            sent += 1
        if turn not in done:
            for fd, _ in poller.poll():
                poller.unregister(fd)
                worker, index = busy.pop(fd)
                done[index] = _receive(fd)
                if done[index] is None:
                    raise _died(worker[0])
                idle.append(worker)
            continue
        ok, value = pickle.loads(done.pop(turn))
        if not ok:
            raise value
        yield value
        turn += 1
        todo.extend(islice(items, 1))


def _died(pid: int) -> RuntimeError:
    """The error for worker pid, which ended while it held an item; reaps it."""
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return RuntimeError(f"a pool worker ended with exit status {status} while it held an item")


def _send(fd: int, message: bytes) -> None:
    view = memoryview(len(message).to_bytes(8, "little") + message)
    while view:
        view = view[os.write(fd, view) :]


def _receive(fd: int) -> bytearray | None:
    """The next message on fd, or None when the pipe ends first."""
    size = _read(fd, 8)
    return None if size is None else _read(fd, int.from_bytes(size, "little"))


def _read(fd: int, size: int) -> bytearray | None:
    """``size`` bytes from fd, or None when the pipe ends first."""
    buffer = bytearray(size)
    view = memoryview(buffer)
    while view:
        got = os.readv(fd, [view])
        if not got:
            return None
        view = view[got:]
    return buffer

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from groupedbh import _pool


def scaled(factor, item):
    return (os.getpid(), factor * item)


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("count", [0, 1, 3, 9])
def test_results_come_in_item_order(monkeypatch, cpus, count, no_child_left):
    # with 4 CPUs, 3 items are fewer than the CPUs
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    with _pool.imap(scaled, 10, list(range(count))) as results:
        got = list(results)
    assert [value for _, value in got] == [10 * i for i in range(count)]  # nothing for no items
    # two or more items on two or more CPUs run in at most that many workers, others here
    in_workers = cpus > 1 and count > 1
    pids = {pid for pid, _ in got}
    assert all((pid != os.getpid()) == in_workers for pid in pids)
    assert len(pids) <= (min(cpus, count) if in_workers else 1)
    no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_leaving_after_the_first_result_stops_the_workers(monkeypatch, cpus, no_child_left):
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    with _pool.imap(scaled, 1, range(100)) as results:
        assert next(iter(results))[1] == 0
    no_child_left()


class Logged:
    """The sized items 0 .. count - 1, logging each as it is iterated;
    raises at ``fail_at``, here, in the consumer's process."""

    def __init__(self, log, count, fail_at=None):
        self.log, self.count, self.fail_at = log, count, fail_at

    def __len__(self):
        return self.count

    def __iter__(self):
        for i in range(self.count):
            if i == self.fail_at:
                raise ValueError(f"draw {i} failed")
            self.log.append(i)
            yield i


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_a_generator_is_drawn_in_order_and_at_most_two_per_worker_ahead(monkeypatch, cpus, no_child_left):
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    log = []
    ahead = []
    with _pool.imap(scaled, 10, Logged(log, 40)) as results:
        for taken, (pid, value) in enumerate(results, start=1):
            assert value == 10 * (taken - 1)
            assert (pid != os.getpid()) == (cpus > 1)
            ahead.append(len(log) - taken)
    assert log == list(range(40))
    assert 0 <= max(ahead) <= 2 * cpus
    assert (max(ahead) > 0) == (cpus > 1)  # workers are handed items before their results are taken
    no_child_left()


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("depth", [None, 3, 40])
def test_depth_items_are_handed_out_before_the_first_result_is_read(monkeypatch, cpus, depth, no_child_left):
    # 2 x workers by default; all 40 items with depth=40
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    log = []
    with _pool.imap(scaled, 10, Logged(log, 40), depth=depth) as results:
        first = next(results)
        handed = len(log)
        rest = list(results)
    assert handed == (2 * cpus if depth is None else depth)
    assert [value for _, value in [first, *rest]] == [10 * i for i in range(40)]
    no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_an_error_drawing_an_item_reaches_the_caller(monkeypatch, cpus, no_child_left):
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    got = []
    with pytest.raises(ValueError, match="draw 12 failed"):
        with _pool.imap(scaled, 1, Logged([], 40, fail_at=12)) as results:
            got.extend(value for _, value in results)
    # the error comes when item 12 is drawn: up to 2 x workers earlier results are not taken
    assert got == list(range(len(got))) and 12 - 2 * cpus <= len(got) <= 12
    no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_leaving_a_generator_early_stops_drawing_and_the_workers(monkeypatch, cpus, no_child_left):
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    log = []
    with _pool.imap(scaled, 1, Logged(log, 1000)) as results:
        for _, value in results:
            if value == 5:
                break
    assert log == list(range(len(log))) and 6 <= len(log) <= 6 + 2 * cpus
    no_child_left()


def run_script(code):
    """Run code in a fresh interpreter that imports this package; a pool
    that hangs fails the test by the timeout instead of stopping the run."""
    src = str(Path(_pool.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)


POOL_SCRIPT = """
import os, time
from groupedbh import _pool
_pool.cpu_count = lambda: 2

def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def test_a_worker_that_exits_holding_an_item_raises_in_the_caller():
    # item 3 is the last, so no later item is sent to the worker that ran it
    run = run_script(POOL_SCRIPT + """
def work(shared, item):
    if item == 3:
        os._exit(3)
    return item

try:
    with _pool.imap(work, None, list(range(4))) as results:
        print(list(results))
except RuntimeError as error:
    print(error)
print(no_child_left())
""")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == [
        "a pool worker ended with exit status 3 while it held an item",
        "True",
    ]


def test_leaving_while_a_worker_writes_a_large_result_returns_promptly():
    # the results, 1 MB each, are larger than a pipe holds: when the block
    # exits, a worker is still writing one, and its write must fail
    run = run_script(POOL_SCRIPT + """
def large(shared, item):
    return bytes(2**20)

with _pool.imap(large, None, list(range(8))) as results:
    next(results)
    left = time.monotonic()
print(time.monotonic() - left < 5, no_child_left())
""")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.split() == ["True", "True"]


class NeedsTwo(Exception):
    """An error that pickles but does not unpickle: its one arg is not
    the two its constructor needs."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


def fail_on_three(error, item):
    if item == 3:
        raise error
    return item


@pytest.mark.parametrize(
    "error, text",
    [(ValueError("bad", threading.Lock()), "ValueError('bad', <unlocked _thread.lock object"),
     (NeedsTwo("x", "y"), "NeedsTwo('x and y')")],
    ids=["does-not-pickle", "does-not-unpickle"],
)
def test_an_error_that_does_not_pickle_reaches_the_caller_by_its_repr(monkeypatch, error, text, no_child_left):
    monkeypatch.setattr(_pool, "cpu_count", lambda: 2)
    got = []
    with pytest.raises(RuntimeError) as raised:
        with _pool.imap(fail_on_three, error, range(8)) as results:
            got.extend(results)
    assert str(raised.value).startswith(text)
    assert got == [0, 1, 2]
    no_child_left()


def lock_on_three(shared, item):
    return threading.Lock() if item == 3 else item


def test_a_result_that_does_not_pickle_reaches_the_caller_as_its_error(monkeypatch, no_child_left):
    monkeypatch.setattr(_pool, "cpu_count", lambda: 2)
    got = []
    with pytest.raises(TypeError, match="cannot pickle '_thread.lock' object"):
        with _pool.imap(lock_on_three, None, range(8)) as results:
            got.extend(results)
    assert got == [0, 1, 2]
    no_child_left()


def pipes_held():
    """{fd: "pipe:[inode]"} of every pipe end this process holds."""
    held = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except FileNotFoundError:  # the listing's own descriptor
            continue
        if target.startswith("pipe:"):
            held[int(fd)] = target
    return held


def worker_pipes(before, item):
    return os.getpid(), {fd: pipe for fd, pipe in pipes_held().items() if pipe not in before}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors through /proc")
def test_no_worker_holds_a_pipe_end_of_another(monkeypatch, no_child_left):
    monkeypatch.setattr(_pool, "cpu_count", lambda: 4)
    before = set(pipes_held().values())
    with _pool.imap(worker_pipes, before, range(4)) as results:
        held = dict(results)
    assert len(held) == 4  # each idle worker is sent an item before a result is read
    # each holds the read end of its item pipe and the write end of its result pipe, no other
    assert all(len(pipes) == 2 for pipes in held.values())
    pipes = [pipe for own in held.values() for pipe in own.values()]
    assert len(set(pipes)) == len(pipes) == 8
    no_child_left()

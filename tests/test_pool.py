import multiprocessing
import os

import pytest

from groupedbh import _pool


def scaled(factor, item):
    return (os.getpid(), factor * item)


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("count", [0, 1, 3, 9])
def test_results_come_in_item_order(monkeypatch, cpus, count):
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
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_leaving_after_the_first_result_stops_the_workers(monkeypatch, cpus):
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    with _pool.imap(scaled, 1, range(100)) as results:
        assert next(iter(results))[1] == 0
    assert multiprocessing.active_children() == []

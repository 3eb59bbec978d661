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
def test_a_generator_is_drawn_in_order_and_at_most_two_per_worker_ahead(monkeypatch, cpus):
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
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("depth", [None, 3, 40])
def test_depth_items_are_handed_out_before_the_first_result_is_read(monkeypatch, cpus, depth):
    # 2 x workers by default; all 40 items with depth=40
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    log = []
    with _pool.imap(scaled, 10, Logged(log, 40), depth=depth) as results:
        first = next(results)
        handed = len(log)
        rest = list(results)
    assert handed == (2 * cpus if depth is None else depth)
    assert [value for _, value in [first, *rest]] == [10 * i for i in range(40)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_an_error_drawing_an_item_reaches_the_caller(monkeypatch, cpus):
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    got = []
    with pytest.raises(ValueError, match="draw 12 failed"):
        with _pool.imap(scaled, 1, Logged([], 40, fail_at=12)) as results:
            got.extend(value for _, value in results)
    # the error comes when item 12 is drawn: up to 2 x workers earlier results are not taken
    assert got == list(range(len(got))) and 12 - 2 * cpus <= len(got) <= 12
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_leaving_a_generator_early_stops_drawing_and_the_workers(monkeypatch, cpus):
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    log = []
    with _pool.imap(scaled, 1, Logged(log, 1000)) as results:
        for _, value in results:
            if value == 5:
                break
    assert log == list(range(len(log))) and 6 <= len(log) <= 6 + 2 * cpus
    assert multiprocessing.active_children() == []

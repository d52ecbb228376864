"""The fork pool: one worker per CPU of the affinity mask, results in
job order whatever ran where, and no child left behind.

The helpers here set the affinity mask and wrap os.fork; the pool's
consumer, run_checks, is tested with them too."""

import os
import signal
import time

import pytest

from attnkit.spread import _workers, spread


@pytest.fixture
def no_child_left():
    """Fails the test if it leaves a child process, or if it has not
    ended after 60 s, e.g. waiting on a child that never exits."""

    def timeout(signum, frame):
        raise TimeoutError("the test did not end within 60 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _one_worker(monkeypatch):
    def fork():
        raise AssertionError("one worker forks nothing")

    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", fork)


def _hold_back(monkeypatch, side):
    """Two workers; side ("parent" or "child") sleeps 0.5 s after the
    fork, so the other side claims every job of a short run."""
    real = os.fork

    def fork():
        pid = real()
        if (pid == 0) == (side == "child"):
            time.sleep(0.5)
        return pid

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("cpus, jobs, workers", [(1, 12, 1), (2, 12, 2), (64, 12, 12), (3, 0, 1)])
def test_workers_follow_the_affinity_mask_capped_at_the_jobs(monkeypatch, cpus, jobs, workers):
    _cpus(monkeypatch, cpus)
    assert _workers(jobs) == workers


def test_workers_fall_back_to_the_cpu_count_and_to_one_without_fork(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _workers(12) == 3
    monkeypatch.delattr(os, "fork")
    assert _workers(12) == 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 5, 300])
def test_spread_is_fn_over_the_indices_in_order(monkeypatch, no_child_left, cpus, count):
    # 300 jobs make more than the pipe's 128 records: a record then
    # claims a range of consecutive jobs.
    _cpus(monkeypatch, cpus)
    assert spread(lambda k: (k, str(k) * 3), count) == [(k, str(k) * 3) for k in range(count)]



@pytest.mark.parametrize("when", ["at the fork", "after its first jobs"])
def test_a_worker_that_dies_leaves_every_result(monkeypatch, no_child_left, when):
    # The parent is held back, so the child claims the first jobs; what
    # it ran dies with it, and this process runs those jobs again.
    parent = os.getpid()
    _hold_back(monkeypatch, "parent")
    real_fork, ran = os.fork, []

    def fork():
        pid = real_fork()
        if pid == 0 and when == "at the fork":
            os._exit(1)
        return pid

    def job(k):
        ran.append(k)
        if os.getpid() != parent and len(ran) == 5:
            os._exit(1)
        return k * k

    monkeypatch.setattr(os, "fork", fork)
    assert spread(job, 300) == [k * k for k in range(300)]

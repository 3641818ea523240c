import concurrent.futures
import os

import pytest

from fimcowp import oracle


class LazyFuture:
    """A future whose call runs, in this process, when its result is read."""

    def __init__(self, fn, arg):
        self._fn, self._arg = fn, arg

    def result(self):
        return self._fn(self._arg)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, the
    initializer arguments and every argument submitted, and runs all of it
    in this process, each call when its result is read, so no worker is
    ever started."""

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        self.initargs.append(initargs)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, arg):
        self.submitted.append(arg)
        return LazyFuture(fn, arg)


@pytest.fixture
def recording_pool(monkeypatch):
    # oracle imports the pool class from concurrent.futures when it starts
    # one, so the stand-in goes there
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(oracle, "_worker_args", ())
    for name in ("sizes", "initargs", "submitted"):
        monkeypatch.setattr(RecordingPool, name, [], raising=False)
    return RecordingPool


@pytest.fixture
def usable_cpus(monkeypatch):
    """Sets the number of CPUs this process may run on, in each place that
    crosscheck may read it: the affinity and the machine's CPU count."""

    def set_cpus(count):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_cpus

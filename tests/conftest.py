import pytest

from fimcowp import oracle


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, the
    initializer arguments and every argument mapped, and runs all of it in
    this process, so no worker is ever started."""

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        self.initargs.append(initargs)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        for arg in iterable:
            self.mapped.append(arg)
            yield fn(arg)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(oracle, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(oracle, "_worker_args", ())
    for name in ("sizes", "initargs", "mapped"):
        monkeypatch.setattr(RecordingPool, name, [], raising=False)
    return RecordingPool

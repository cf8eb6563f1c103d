import pytest

from buslab import simulator


@pytest.fixture
def cpus(monkeypatch):
    """set_cpus(n): split shards as on an n-CPU host, through a pool of n - 1
    threads made afresh (a pool keeps the size it was made with) and shut
    down when the test ends."""

    def set_cpus(n):
        monkeypatch.setattr(simulator, "_CPUS", n)
        monkeypatch.setattr(simulator, "_pool", None)

    yield set_cpus
    if simulator._pool is not None:
        simulator._pool.shutdown()

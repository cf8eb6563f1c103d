import pytest

from buslab import simulator


@pytest.fixture
def cpus(monkeypatch):
    """set_cpus(n): split shards as on an n-CPU host."""

    def set_cpus(n):
        monkeypatch.setattr(simulator, "_CPUS", n)

    return set_cpus

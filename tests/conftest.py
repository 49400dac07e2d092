import pytest

from mdmfso import screens


@pytest.fixture()
def set_workers(monkeypatch):
    """Set the worker count of screens._ordered_map to n, whatever the CPUs."""
    monkeypatch.setattr(screens, "_usable_cpus", lambda: 8)

    def set_to(n):
        monkeypatch.setattr(screens, "MAX_WORKERS", n)

    return set_to

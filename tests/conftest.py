import os
import resource

import numpy as np
import pytest

from mdmfso import screens


def pytest_report_header(config):
    # the GOLDEN hashes hold at any BLAS thread count, but are bit-exact
    # only for one numpy and BLAS build: a failing hash should show the
    # build and the thread setting at a glance
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    # batch_generate returns freed memory to the OS only through
    # malloc_trim, so the peak RSS printed below depends on it
    trim = "found" if screens._MALLOC_TRIM is not None else "not found"
    return [
        f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
        f"malloc_trim {trim}",
        f"os.cpu_count() {os.cpu_count()}, OPENBLAS_NUM_THREADS {threads}",
    ]


# the (criterion, statistic, value, bound) rows that the acceptance
# tests record through the `criterion` fixture, in the order recorded
_CRITERIA = pytest.StashKey[list]()


def pytest_configure(config):
    config.stash[_CRITERIA] = []


def _format_value(value):
    value = np.asarray(value)
    if value.ndim:
        return np.array2string(value, precision=4, max_line_width=200)
    return f"{value.item():.4g}"


def pytest_terminal_summary(terminalreporter, config):
    # every acceptance statistic in one block, so that a -q run shows
    # the values, failing criteria's included, without -s
    rows = config.stash[_CRITERIA]
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria: statistic = value (bound)")
        for criterion, statistic, value, bound in rows:
            terminalreporter.write_line(
                f"{criterion}  {statistic} = {_format_value(value)}  ({bound})"
            )
    # the memory the suite needs, read off every run; ru_maxrss is in KiB
    # on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    terminalreporter.write_line(f"peak RSS of the pytest process: {peak:.0f} MiB")


@pytest.fixture(scope="session")
def criterion(pytestconfig):
    """record(criterion, statistic, value, bound): one row of the block
    that the terminal summary prints. A test records a value before it
    asserts on it."""

    def record(criterion, statistic, value, bound):
        pytestconfig.stash[_CRITERIA].append((criterion, statistic, value, bound))

    return record


@pytest.fixture()
def set_workers(monkeypatch):
    """Set the worker count of screens._ordered_map to n, whatever the CPUs."""
    monkeypatch.setattr(screens, "_usable_cpus", lambda: 8)

    def set_to(n):
        monkeypatch.setattr(screens, "MAX_WORKERS", n)

    return set_to


@pytest.fixture()
def trim_calls(monkeypatch):
    """Replace screens._trim with a counter; returns the list it appends to."""
    calls = []
    monkeypatch.setattr(screens, "_trim", lambda: calls.append(None))
    return calls

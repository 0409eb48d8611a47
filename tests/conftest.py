"""Shared helpers for the test suite."""

import numpy as np
import pytest

from moqa import McoInstance


def make_instance(values, lam=None, label_offset=0) -> McoInstance:
    """Build an instance from a plain list of rows."""
    arr = np.asarray(values, dtype=np.float64)
    lam_arr = None if lam is None else np.asarray(lam, dtype=np.float64)
    return McoInstance(arr, lam=lam_arr, label_offset=label_offset)


def random_instance(rng: np.random.Generator, n: int, d: int) -> McoInstance:
    """Random nonnegative instance with 2^n rows and d objectives."""
    values = rng.uniform(0.0, 10.0, size=(1 << n, d))
    return McoInstance(values)


def oracle_dominates(u, v) -> bool:
    """u strictly dominates v: componentwise <= with at least one <."""
    le = all(a <= b for a, b in zip(u, v))
    lt = any(a < b for a, b in zip(u, v))
    return le and lt


def oracle_front(values) -> set[int]:
    """Brute-force double loop Pareto front."""
    size = len(values)
    front = set()
    for x in range(size):
        dominated = False
        for y in range(size):
            if y != x and oracle_dominates(values[y], values[x]):
                dominated = True
                break
        if not dominated:
            front.add(x)
    return front


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            when = getattr(report, "when", "call")
            if "test_acceptance.py::test_criterion_" in nodeid and when == "call":
                rows.append((nodeid.split("::")[-1], outcome))
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(rows):
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")

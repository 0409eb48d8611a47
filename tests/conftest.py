"""Shared helpers for the test suite."""

import numpy as np
import pytest
import scipy.linalg

from moqa import InitialHamiltonian, McoInstance, evolve


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


def dense_driver(dim, scale, h_values=None):
    """scale * W diag(h) W for the orthonormal Hadamard matrix W.

    Built from scipy's Hadamard matrix, so it checks the package's driver
    instead of reusing it.  h defaults to the penalties (0, 1, ..., 1).
    """
    h = np.r_[0.0, np.ones(dim - 1)] if h_values is None else np.asarray(h_values)
    walsh = scipy.linalg.hadamard(dim) / np.sqrt(dim)
    return scale * (walsh * h) @ walsh


def dense_oracle(driver, diag, grid):
    """(lambda0, lambda1, ||H(s)||) per grid point, delta_max, ||[H0, Hw]||.

    Eigenvalues come from scipy, so the oracle does not share the
    package's numpy.linalg solvers.
    """
    rows = []
    for s in grid:
        vals = scipy.linalg.eigvalsh((1.0 - s) * driver + s * np.diag(diag))
        rows.append((vals[0], vals[1], np.max(np.abs(vals))))
    dmax = np.max(np.abs(scipy.linalg.eigvalsh(np.diag(diag) - driver)))
    comm = driver * diag[None, :] - diag[:, None] * driver
    return np.array(rows), dmax, np.linalg.norm(comm, 2)


def dense_path(h0, hw, total_time, steps):
    """evolve on its dense branch, which other driver penalties take."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InitialHamiltonian, "is_default", property(lambda self: False))
        return evolve(h0, hw, total_time, steps=steps)


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

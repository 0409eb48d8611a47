"""Piecewise-constant simulation of the annealing schedule.

The state starts in the uniform superposition (the driver ground state)
and is pushed through H(s) = (1 - s) * H_initial + s * H_final with a
midpoint rule: the schedule is cut into equal slices and each slice
applies the exact matrix exponential of the Hamiltonian frozen at the
slice midpoint.  Every slice is unitary by construction, so norm drift
stays at machine-precision level and is tracked, not corrected.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, NormalizationError
from .hamiltonians import (
    DiagonalHamiltonian,
    InitialHamiltonian,
    commutes,
    interpolation_dense,
)
from .instance_io import write_text_atomic
from .spectral import DEGENERACY_TOL, degeneracy_check

DEFAULT_STEPS = 4096
NORM_TOL = 1e-6
HISTOGRAM_CSV_HEADER = "x,count,probability"


def initial_ground_state(n: int) -> np.ndarray:
    """Uniform superposition over n bits: every amplitude is 2^(-n/2)."""
    if n < 1:
        raise ConfigurationError(f"need n >= 1, got {n}")
    dim = 1 << n
    return np.full(dim, dim ** -0.5, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Final state of a schedule run plus its quality measures.

    Attributes:
        final_state: Complex amplitudes after the last slice.
        total_time: Physical duration T of the schedule.
        steps: Number of equal slices.
        norm_drift: Largest |norm - 1| observed across the run.
        target_index: Unique minimizer of the problem diagonal, or None
            when the minimum is degenerate.
        ground_fidelity: |<target|final>|^2, or None without a unique
            target.
        degenerate_target: Whether the problem minimum was tied.
        distribution: |amplitude|^2 per domain index.
    """

    final_state: np.ndarray
    total_time: float
    steps: int
    norm_drift: float
    target_index: int | None
    ground_fidelity: float | None
    degenerate_target: bool
    distribution: np.ndarray


def evolve(
    h0: InitialHamiltonian,
    hw: DiagonalHamiltonian,
    total_time: float,
    steps: int = DEFAULT_STEPS,
    tie_tol: float = DEGENERACY_TOL,
) -> EvolutionResult:
    """Run the schedule for duration total_time in equal midpoint slices.

    The state starts in initial_ground_state(n), the uniform superposition
    that is the driver's ground state.

    Args:
        h0: Driver Hamiltonian.
        hw: Problem Hamiltonian.
        total_time: Schedule duration T >= 0; T = 0 returns the initial
            state unchanged.
        steps: Slice count >= 1.
        tie_tol: Tolerance for deciding whether the problem minimum is
            unique (fidelity is only defined against a unique target).

    Returns:
        EvolutionResult.  A warning is emitted when the driver and problem
        Hamiltonians commute, since the run then cannot steer the state.
    """
    if h0.dim != hw.dim:
        raise DimensionMismatchError(f"driver dim {h0.dim} != problem dim {hw.dim}")
    if total_time < 0 or not np.isfinite(total_time):
        raise ConfigurationError(f"total_time must be finite and >= 0, got {total_time}")
    try:
        steps = operator.index(steps)
    except TypeError:
        raise ConfigurationError(f"steps must be an integer, got {steps!r}") from None
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    psi = initial_ground_state(int(h0.dim).bit_length() - 1)
    # The drift starts from the initial state's own rounding error.
    drift = abs(float(np.linalg.norm(psi)) - 1.0)

    report = degeneracy_check(hw, tie_tol)

    check = commutes(h0, hw)
    if check.commuting:
        warnings.warn(
            "driver and problem Hamiltonians commute; the schedule cannot "
            "rotate the state toward the problem ground state",
            stacklevel=2,
        )

    if total_time > 0:
        import scipy.linalg

        dt = total_time / steps
        for k in range(steps):
            s_mid = (k + 0.5) / steps
            mat = interpolation_dense(h0, hw, s_mid)
            vals, vecs = scipy.linalg.eigh(mat)
            phases = np.exp(-1j * dt * vals)
            psi = vecs @ (phases * (vecs.conj().T @ psi))
            drift = max(drift, abs(float(np.linalg.norm(psi)) - 1.0))

    if report.multiplicity == 1:
        target: int | None = report.witnesses[0]
        fidelity: float | None = float(np.abs(psi[target]) ** 2)
        degenerate = False
    else:
        target, fidelity, degenerate = None, None, True

    return EvolutionResult(
        final_state=psi,
        total_time=float(total_time),
        steps=int(steps),
        norm_drift=float(drift),
        target_index=target,
        ground_fidelity=fidelity,
        degenerate_target=degenerate,
        distribution=np.abs(psi) ** 2,
    )


def measure(state: np.ndarray, shots: int, seed: int | None = None) -> np.ndarray:
    """Sample computational-basis outcomes from a state.

    Args:
        state: Unit-norm amplitudes.
        shots: Number of samples, >= 0.
        seed: Nonnegative RNG seed; identical seeds give identical
            histograms.

    Returns:
        Integer counts per domain index, summing to shots.
    """
    psi = np.asarray(state, dtype=np.complex128)
    if psi.ndim != 1 or psi.size < 2:
        raise DimensionMismatchError("state must be a vector of length >= 2")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_TOL:
        raise NormalizationError(f"state norm {norm!r} is not 1")
    if shots < 0:
        raise ConfigurationError(f"shots must be >= 0, got {shots}")
    if seed is not None and seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    probs = np.abs(psi) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(psi.size, size=int(shots), p=probs)
    return np.bincount(outcomes, minlength=psi.size).astype(np.int64)


def write_histogram_csv(counts: np.ndarray, path) -> None:
    """Write measurement counts as x,count,probability rows.

    The probability column is the empirical frequency count / shots
    (zero when no shots were taken).
    """
    counts = np.asarray(counts, dtype=np.int64)
    shots = int(counts.sum())
    lines = [HISTOGRAM_CSV_HEADER]
    for x, c in enumerate(counts):
        p = (int(c) / shots) if shots else 0.0
        lines.append(f"{x},{int(c)},{p!r}")
    write_text_atomic(path, "\n".join(lines) + "\n")

"""Piecewise-constant simulation of the annealing schedule.

The state starts in the uniform superposition (the driver ground state)
and is pushed through H(s) = (1 - s) * H_initial + s * H_final with a
midpoint rule: the schedule is cut into equal slices and each slice
applies the exact matrix exponential of the Hamiltonian frozen at the
slice midpoint.  Every slice is unitary by construction, so norm drift
stays at machine-precision level and is tracked, not corrected.

With the default driver, spectral.rank_one_evolve runs the schedule
exactly in the K-dimensional basis of the level sets of the problem
diagonal, K <= N being the number of its distinct values: a slice costs
O(K^2), a few O(K) root steps per eigenvalue plus two products with
eigenvectors formed a block of rows at a time, so memory grows with K and
no N x N matrix is formed.  Every root step, weight and eigenvector starts
from a matrix of gaps from the levels to the roots, whose level
differences come from one exact matrix product with k = 2 and whose
offsets are subtracted in a separate pass (see spectral).  Only every
stride-th slice and the last start their roots at the bracket midpoints;
the slices between start from those roots, interpolated, and take fewer
steps.  The stride is spectral.ANCHOR with spectral.WARM_MIN_STEPS slices
or more, and 1 with fewer.
Other driver penalties take one dense interpolation and one full
eigendecomposition, O(N^3), per slice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, NormalizationError
from .errors import NumericalRangeError, check_count, is_finite_real
from .hamiltonians import (
    DiagonalHamiltonian,
    InitialHamiltonian,
    check_pair,
    commutes,
    interpolation_dense,
)
from .instance_io import csv_text, write_text_atomic
from .spectral import DEGENERACY_TOL, degeneracy_check, rank_one_evolve

DEFAULT_STEPS = 4096
NORM_TOL = 1e-6
HISTOGRAM_CSV_HEADER = "x,count,probability"


def initial_ground_state(n: int) -> np.ndarray:
    """Uniform superposition over n bits: every amplitude is 2^(-n/2)."""
    dim = 1 << check_count("n", n, 1)
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
            state unchanged, and a T whose slice phases overflow float64
            raises NumericalRangeError.
        steps: Slice count >= 1.
        tie_tol: Tolerance for deciding whether the problem minimum is
            unique (fidelity is only defined against a unique target).

    Returns:
        EvolutionResult.  A warning is emitted when the driver and problem
        Hamiltonians commute, since the run then cannot steer the state.
    """
    check_pair(h0, hw)
    if not (is_finite_real(total_time) and total_time >= 0):
        raise ConfigurationError(f"total_time must be a finite number >= 0, got {total_time!r}")
    steps = check_count("steps", steps, 1)
    dt = total_time / steps
    # Every eigenvalue of H(s) lies in [0, bound], so dt * bound bounds each phase.
    bound = max(h0.scale * float(h0.h_values.max()), float(hw.diagonal.max()))
    if not np.isfinite(dt * bound):
        raise NumericalRangeError(f"slice phases overflow: time step {dt!r} times "
                                  f"energy bound {bound!r} is not finite")
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

    if total_time > 0 and h0.is_default:
        psi, drift = rank_one_evolve(h0.scale, hw.diagonal, dt, steps, drift)
    elif total_time > 0:
        import scipy.linalg

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
        steps=steps,
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
    if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
        raise NormalizationError(f"state norm {norm!r} is not 1")
    shots = check_count("shots", shots, 0)
    if seed is not None:
        seed = check_count("seed", seed, 0)
    probs = np.abs(psi) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(psi.size, size=shots, p=probs)
    return np.bincount(outcomes, minlength=psi.size).astype(np.int64)


def write_histogram_csv(counts: np.ndarray, path) -> None:
    """Write measurement counts as x,count,probability rows.

    The probability column is the empirical frequency count / shots
    (zero when no shots were taken).
    """
    counts = np.asarray(counts, dtype=np.int64)
    shots = int(counts.sum())
    probs = counts / shots if shots else np.zeros(counts.size)
    text = csv_text(HISTOGRAM_CSV_HEADER, np.arange(counts.size), counts, probs)
    write_text_atomic(path, text)

"""Spectral analysis of the annealing interpolation.

Provides the smallest eigenpair queries, gap curves over a schedule grid,
degeneracy detection on the problem diagonal, spectral norms, runtime
estimates, and the end-of-schedule gap diagnostics that relate the
spectrum at s = 1 to the instance's separation vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConfigurationError,
    DegenerateGapError,
    DimensionMismatchError,
)
from .hamiltonians import (
    DiagonalHamiltonian,
    HermitianOperator,
    InitialHamiltonian,
    interpolation_dense,
)
from .instance_io import write_text_atomic
from .mco import Linearization, McoInstance, scalarize, trivial_solutions

#: Absolute tolerance under which two eigenvalues count as tied.
DEGENERACY_TOL = 1e-9
#: Guaranteed residual quality of eigenpair queries, relative to the
#: operator's spectral norm.
RESIDUAL_REL_TOL = 1e-8
DEFAULT_GRID_POINTS = 512
GAP_CSV_HEADER = "s,lambda0,lambda1,gap"


@dataclass(frozen=True, eq=False)
class EigenPair:
    """One eigenvalue with a unit-norm eigenvector."""

    value: float
    vector: np.ndarray


def smallest_two(op: HermitianOperator) -> tuple[EigenPair, EigenPair]:
    """The two smallest eigenpairs of a Hermitian operator.

    Eigenvalues come back in ascending order with orthonormal vectors;
    residual norms ||H v - t v|| stay below RESIDUAL_REL_TOL times the
    spectral norm of H.

    Args:
        op: Operator to decompose; hermiticity was checked at construction.

    Returns:
        (ground, first_excited) EigenPairs.
    """
    vals, vecs = scipy.linalg.eigh(op.entries, subset_by_index=(0, 1))
    return (
        EigenPair(float(vals[0]), vecs[:, 0].copy()),
        EigenPair(float(vals[1]), vecs[:, 1].copy()),
    )


@dataclass(frozen=True, eq=False)
class GapCurve:
    """Two lowest eigenvalue branches sampled along the schedule.

    Attributes:
        s_values: Sample points in [0, 1], strictly increasing.
        lambda0: Smallest eigenvalue at each sample.
        lambda1: Second smallest eigenvalue at each sample.
        gap: lambda1 - lambda0, nonnegative by construction.
    """

    s_values: np.ndarray
    lambda0: np.ndarray
    lambda1: np.ndarray
    gap: np.ndarray

    @property
    def g_min(self) -> float:
        """Smallest sampled gap."""
        return float(self.gap.min())

    @property
    def s_at_min(self) -> float:
        """Sample point attaining the smallest gap (first, on ties)."""
        return float(self.s_values[int(self.gap.argmin())])

    def to_csv(self, path) -> None:
        lines = [GAP_CSV_HEADER]
        for s, l0, l1, g in zip(self.s_values, self.lambda0, self.lambda1, self.gap):
            lines.append(f"{float(s)!r},{float(l0)!r},{float(l1)!r},{float(g)!r}")
        write_text_atomic(path, "\n".join(lines) + "\n")


def uniform_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Evenly spaced schedule grid on [0, 1], endpoints included."""
    if points < 2:
        raise ConfigurationError("need at least 2 grid points")
    return np.linspace(0.0, 1.0, points)


def gap_scan(
    h0: InitialHamiltonian,
    hw: DiagonalHamiltonian,
    points: int = DEFAULT_GRID_POINTS,
) -> GapCurve:
    """Track the two lowest eigenvalues across the schedule.

    Args:
        h0: Driver Hamiltonian.
        hw: Problem Hamiltonian.
        points: Size of the uniform grid on [0, 1], endpoints included.

    Returns:
        GapCurve over uniform_grid(points).
    """
    grid = uniform_grid(points)
    lambda0 = np.empty(grid.size)
    lambda1 = np.empty(grid.size)
    for k, s in enumerate(grid):
        mat = interpolation_dense(h0, hw, float(s))
        vals = scipy.linalg.eigh(mat, eigvals_only=True, subset_by_index=(0, 1))
        lambda0[k], lambda1[k] = float(vals[0]), float(vals[1])
    return GapCurve(grid, lambda0, lambda1, lambda1 - lambda0)


@dataclass(frozen=True)
class DegeneracyReport:
    """Multiplicity of the problem Hamiltonian's minimum diagonal entry."""

    min_value: float
    multiplicity: int
    witnesses: tuple[int, ...]


def degeneracy_check(
    hw: DiagonalHamiltonian, tol: float = DEGENERACY_TOL
) -> DegeneracyReport:
    """Find every diagonal entry within tol of the minimum."""
    if not np.isfinite(tol):
        raise ConfigurationError(f"tolerance must be finite, got {tol!r}")
    if tol < 0:
        raise ConfigurationError("tolerance must be nonnegative")
    diag = hw.diagonal
    min_value = float(diag.min())
    witnesses = tuple(int(x) for x in np.nonzero(diag <= min_value + tol)[0])
    return DegeneracyReport(
        min_value=min_value,
        multiplicity=len(witnesses),
        witnesses=witnesses,
    )


def delta_max(h0: InitialHamiltonian, hw: DiagonalHamiltonian) -> float:
    """Spectral norm of H_final - H_initial.

    Under the linear schedule this is the norm of the (constant) schedule
    derivative of the interpolation, the quantity runtime estimates need.
    """
    if h0.dim != hw.dim:
        raise DimensionMismatchError(f"driver dim {h0.dim} != problem dim {hw.dim}")
    diff = -h0.dense()
    diff[np.diag_indices(hw.dim)] += hw.diagonal
    vals = np.linalg.eigvalsh(diff)
    return float(np.max(np.abs(vals)))


@dataclass(frozen=True)
class RuntimeEstimate:
    """Evolution-time estimates derived from spectral quantities.

    Attributes:
        t_heuristic: delta_max / g_min**2, the practical scaling rule.
        t_rigorous: Worst-case sufficient time from the adiabatic
            condition at error delta, using delta_max as the schedule
            derivative norm and zero schedule curvature (linear schedule):
            (1e5 / delta**2) * delta_max**3 / gap_floor**4.  Orders of
            magnitude above t_heuristic by design; never a default choice.
    """

    g_min: float
    delta_max: float
    delta: float
    gap_floor: float
    t_heuristic: float
    t_rigorous: float


def runtime_estimate(
    g_min: float,
    dmax: float,
    delta: float = 0.1,
    gap_floor: float | None = None,
) -> RuntimeEstimate:
    """Estimate evolution times from a measured minimum gap.

    Args:
        g_min: Smallest sampled gap; must be positive.
        dmax: Spectral norm of H_final - H_initial.
        delta: Target error parameter in (0, 1).
        gap_floor: Spectral-gap lower bound for the rigorous formula;
            defaults to g_min.

    Raises:
        DegenerateGapError: When g_min (or gap_floor) is not positive.
    """
    if g_min <= 0.0:
        raise DegenerateGapError(f"minimum gap must be positive, got {g_min}")
    if not (0.0 < delta < 1.0):
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    floor = g_min if gap_floor is None else float(gap_floor)
    if floor <= 0.0:
        raise DegenerateGapError(f"gap floor must be positive, got {floor}")
    if dmax < 0.0:
        raise ConfigurationError("delta_max must be nonnegative")
    t_heuristic = dmax / (g_min * g_min)
    t_rigorous = 1e5 * (1.0 / delta) ** 2 * (dmax**3 / floor**4)
    return RuntimeEstimate(
        g_min=float(g_min),
        delta_max=float(dmax),
        delta=float(delta),
        gap_floor=floor,
        t_heuristic=float(t_heuristic),
        t_rigorous=float(t_rigorous),
    )


@dataclass(frozen=True)
class EndGapDiagnostics:
    """How the s = 1 spectrum relates to the instance separations.

    Attributes:
        min_weighted_value: Smallest weighted-sum value (ground energy at
            s = 1).
        second_weighted_value: Second smallest weighted-sum value,
            multiplicity included, so a tied minimum yields
            second_weighted_value == min_weighted_value.
        end_gap: second_weighted_value - min_weighted_value.
        weighted_separation: Inner product of the separation vector with
            the weights.
        minimizer: Domain index attaining the minimum (smallest index on
            ties).
        tied_minimizers: All indices within DEGENERACY_TOL of the minimum.
        minimizer_is_trivial: Whether the minimizer also minimizes a
            single objective on its own.
        min_exceeds_weighted_separation: min_weighted_value >
            weighted_separation,
            evaluated only when the minimizer is not trivial (None
            otherwise).  Expected to hold for separated instances.
        end_gap_meets_weighted_separation: end_gap >= weighted_separation.
            A bound that real instances are known to break; reported,
            never asserted.
        scan_g_min: Minimum gap of the accompanying scan, when given.
        min_gap_attained_at_end: scan_g_min >= end_gap (within
            DEGENERACY_TOL), when a scan was given.  True means the scan
            found no interior gap smaller than the end gap.
    """

    weights: tuple[float, ...]
    separations: tuple[float, ...]
    min_weighted_value: float
    second_weighted_value: float
    end_gap: float
    weighted_separation: float
    minimizer: int
    tied_minimizers: tuple[int, ...]
    minimizer_is_trivial: bool
    min_exceeds_weighted_separation: bool | None
    end_gap_meets_weighted_separation: bool
    scan_g_min: float | None = None
    min_gap_attained_at_end: bool | None = None


def end_gap_diagnostics(
    inst: McoInstance,
    w: Linearization,
    gap_curve: GapCurve | None = None,
) -> EndGapDiagnostics:
    """Diagnostics at the end of the schedule for one weighting.

    Args:
        inst: Objective table; its separation vector inst.lam is weighted
            into the bound.  Use inst.with_lambda(v) for another vector.
        w: Weighting whose scalarization forms the problem diagonal.
        gap_curve: Optional scan whose minimum gap is compared against the
            end gap; the comparison flags are None without it.

    Raises:
        ConfigurationError: When the instance has no separation vector.
    """
    if inst.lam is None:
        raise ConfigurationError("end-gap diagnostics need a separation vector")
    scal = scalarize(inst, w)
    order = np.argsort(scal, kind="stable")
    lowest = float(scal[order[0]])
    second = float(scal[order[1]])
    end_gap = second - lowest
    weighted_sep = float(inst.lam @ w.weights)
    tied = tuple(int(x) for x in np.nonzero(scal <= lowest + DEGENERACY_TOL)[0])
    minimizer = int(order[0])
    trivial = minimizer in set(trivial_solutions(inst))
    min_exceeds = None if trivial else bool(lowest > weighted_sep)
    scan_g_min = None if gap_curve is None else gap_curve.g_min
    attained = (
        None
        if gap_curve is None
        else bool(gap_curve.g_min >= end_gap - DEGENERACY_TOL)
    )
    return EndGapDiagnostics(
        weights=w.as_tuple(),
        separations=tuple(float(v) for v in inst.lam),
        min_weighted_value=lowest,
        second_weighted_value=second,
        end_gap=end_gap,
        weighted_separation=weighted_sep,
        minimizer=minimizer,
        tied_minimizers=tied,
        minimizer_is_trivial=trivial,
        min_exceeds_weighted_separation=min_exceeds,
        end_gap_meets_weighted_separation=bool(end_gap >= weighted_sep),
        scan_g_min=scan_g_min,
        min_gap_attained_at_end=attained,
    )

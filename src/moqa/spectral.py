"""Spectral analysis of the annealing interpolation.

Provides the smallest eigenpair queries, gap curves over a schedule grid,
degeneracy detection on the problem diagonal, spectral norms, runtime
estimates, and the end-of-schedule gap diagnostics that relate the
spectrum at s = 1 to the instance's separation vector.

With the default driver scale * (I - |u><u|), where u is the uniform
superposition, every operator analysed here is a diagonal plus a rank-one
term.  Its eigenvalues are then roots of a secular equation over the
distinct diagonal levels (Golub 1973), which secular_roots brackets and
bisects without forming a matrix.  Other drivers take the dense path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateGapError,
    DimensionMismatchError,
    NumericalRangeError,
    check_count,
)
from .hamiltonians import (
    DiagonalHamiltonian,
    HermitianOperator,
    InitialHamiltonian,
    interpolation_dense,
)
from .instance_io import csv_text, write_text_atomic
from .mco import Linearization, McoInstance, scalarize, trivial_solutions

#: Absolute tolerance under which two eigenvalues count as tied.
DEGENERACY_TOL = 1e-9
#: Guaranteed residual quality of eigenpair queries, relative to the
#: operator's spectral norm.
RESIDUAL_REL_TOL = 1e-8
DEFAULT_GRID_POINTS = 512
GAP_CSV_HEADER = "s,lambda0,lambda1,gap"
#: secular_roots takes rows in blocks of about this many elements divided by
#: the number of distinct levels, so its temporaries stay bounded.
SECULAR_BLOCK = 1 << 16
#: Bisection halvings after which secular_roots stops even if a bracket is
#: still wider than one float64 spacing.
SECULAR_MAX_STEPS = 128
#: rank_one_eigh takes a root as final once a step moves it by at most this
#: fraction of its offset from its pole; the next step of a quadratically
#: convergent iteration is then far below float64 resolution.
RANK_ONE_STEP_TOL = 1e-9
#: Steps after which rank_one_eigh gives up on a root that has not converged.
RANK_ONE_MAX_STEPS = 64
#: rank_one_eigh takes rows in blocks of about this many elements divided by
#: the number of distinct levels.
RANK_ONE_BLOCK = 1 << 17


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
    import scipy.linalg

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
        text = csv_text(GAP_CSV_HEADER, self.s_values, self.lambda0, self.lambda1, self.gap)
        write_text_atomic(path, text)


def uniform_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Evenly spaced schedule grid on [0, 1], endpoints included."""
    return np.linspace(0.0, 1.0, check_count("points", points, 2))


def secular_roots(offsets, weights, slopes, target, lo, hi) -> np.ndarray:
    """Bracketed roots of rank-one secular equations, one per row.

    Away from its poles d_j, diag(d) + rho * |z><z| has the eigenvalue
    p + tau, for a reference pole p, exactly where
    sum_j z_j**2 / (d_j - p - tau) = -1 / rho.  Row b solves
    sum_j weights[j] / (slopes[b] * offsets[j] - tau) = target[b] for tau
    in (lo[b], hi[b]), with slopes[b] * offsets[j] standing for d_j - p:
    measuring from p keeps the pole distances free of cancellation.  The
    bracket must hold no pole, so the sum rises strictly across it, and
    bisection narrows it to adjacent floats.

    Args:
        offsets: Level offsets, shape (K,).
        weights: Level weights z_j**2, shape (K,).
        slopes, target, lo, hi: Per-row scalars, broadcast together.

    Returns:
        tau per row.  Rows go in blocks of about SECULAR_BLOCK / K, so no
        temporary grows with rows * K.
    """
    slopes, target, lo, hi = np.broadcast_arrays(*np.atleast_1d(slopes, target, lo, hi))
    out = np.empty(slopes.shape)
    step = max(1, SECULAR_BLOCK // offsets.size)
    # A converged row may bisect onto a pole; its sum is never used.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, out.size, step):
            rows = slice(start, start + step)
            poles = slopes[rows, None] * offsets
            buf = np.empty_like(poles)
            a, b, t = lo[rows], hi[rows], target[rows]
            for _ in range(SECULAR_MAX_STEPS):
                mid = 0.5 * (a + b)
                if np.all((mid <= a) | (mid >= b)):
                    break
                np.subtract(poles, mid[:, None], out=buf)
                np.divide(weights, buf, out=buf)
                right = buf.sum(axis=1) < t
                a = np.where(right, mid, a)
                b = np.where(right, b, mid)
            out[rows] = 0.5 * (a + b)
    return out


def rank_one_eigh(levels, weights, couplings) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of diag(levels) - g * |z><z|, one problem per coupling g.

    Root k > 0 lies between the poles levels[k - 1] and levels[k], and
    root 0 lies in (levels[0] - g * sum(weights), levels[0]).  Each root is
    held as an offset from its nearer pole, picked from the sign of the
    secular function at the interval's midpoint, and found by the two-pole
    rational model of Bunch, Nielsen & Sorensen (1978), the "middle way" of
    LAPACK's dlaed4 (Li 1993), inside a kept bracket: a model step that
    leaves the bracket is replaced by bisection.  The vectors use the
    weights that make the computed roots exact (Gu & Eisenstat 1995), and
    every level-to-root distance is a level difference plus a root offset,
    so close levels keep their relative accuracy.  A problem costs O(K^2):
    a few O(K) steps per root, and O(K) per weight and per vector.

    Args:
        levels: Strictly increasing diagonal, shape (K,).
        weights: z_j**2 > 0, shape (K,).
        couplings: Positive g per problem, shape (S,).

    Returns:
        (values, vectors): ascending eigenvalues, shape (S, K), and
        orthonormal eigenvectors in the columns of each vectors[s], shape
        (S, K, K).  Rows (problem, root) go in blocks of about
        RANK_ONE_BLOCK / K, so the temporaries beside the result stay
        within a few K x K arrays.

    Raises:
        NumericalRangeError: When a root has not converged after
            RANK_ONE_MAX_STEPS steps, or when the eigenpairs leave float
            range, as they do for levels closer than the smallest normal
            float.
    """
    levels = np.asarray(levels, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    couplings = np.atleast_1d(np.asarray(couplings, dtype=np.float64))
    size, count = levels.size, couplings.size
    if size == 1:
        return levels - couplings[:, None] * weights, np.ones((count, 1, 1))
    z, total = np.sqrt(weights), weights.sum()
    rank = np.tile(np.arange(size), count)
    problem = np.repeat(np.arange(count), size)
    # gaps[p, j] = levels[j] - levels[p], each rounded once.
    gaps = levels - levels[:, None]
    values = np.empty(count * size)
    zhat2 = np.ones((count, size))
    poles = np.empty(count * size, dtype=np.intp)
    offsets = np.empty(count * size)
    step = max(1, RANK_ONE_BLOCK // size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # The weights are recomputed as a product over roots of
        # (level - root) / (level - pole), pairing root k with the one of
        # its bracketing poles farther from the level: every factor but
        # root 0's lies in (0, 1), so no partial product leaves float range.
        inv_far = np.abs(gaps[:-1])
        np.maximum(inv_far, np.abs(gaps[1:]), out=inv_far)
        np.reciprocal(inv_far, out=inv_far)
        for start in range(0, rank.size, step):
            rows = slice(start, start + step)
            k, g = rank[rows], couplings[problem[rows]]
            pole, offset = _rank_one_roots(gaps, z, total, k, g)
            poles[rows], offsets[rows] = pole, offset
            values[rows] = levels[pole] + offset
            ratio = gaps[pole] - offset[:, None]
            first = k == 0
            head = ratio[first] / (gaps[0] + g[first, None])
            ratio *= inv_far[np.maximum(k - 1, 0)]
            ratio[first] = head
            owner = problem[rows]
            cuts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
            zhat2[owner[cuts]] *= np.multiply.reduceat(ratio, cuts, axis=0)
        # Root 0 was paired with g + levels - levels[0] instead of g.
        zhat = np.sqrt(np.abs(zhat2) * (1.0 + gaps[0] / couplings[:, None]))
        out = np.empty((count * size, size))
        for start in range(0, rank.size, step):
            rows = slice(start, start + step)
            vec = out[rows]
            np.subtract(gaps[poles[rows]], offsets[rows, None], out=vec)
            np.divide(zhat[problem[rows]], vec, out=vec)
            # The nearest level is the root's pole, so this scaling keeps
            # every entry at most max(zhat) and the squares in range.
            vec *= np.abs(offsets[rows, None])
            vec /= np.sqrt(np.einsum("ij,ij->i", vec, vec))[:, None]
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(out))):
        raise NumericalRangeError(
            "rank-one eigenpairs left float range; the levels are too close "
            "for their spread and couplings"
        )
    vectors = out.reshape(count, size, size).transpose(0, 2, 1)
    return values.reshape(count, size), vectors


def _rank_one_roots(gaps, z, total, k, g) -> tuple[np.ndarray, np.ndarray]:
    """Root k of sum_j z_j**2 / (levels_j - x) = 1 / g, one per row.

    Returns (pole, offset) per row; the root is levels[pole] + offset.
    """
    inner = k > 0
    # Model poles: the two bracketing poles, or poles 0 and 1 for root 0.
    left, right = np.maximum(k - 1, 0), np.maximum(k, 1)
    width = gaps[left, right]
    tiny = np.nextafter(0.0, 1.0)
    # Start at the bracket's midpoint, measured from the left pole; the
    # poles stay outside the bracket, so no iterate lands on one.
    pole = left.copy()
    lo = np.where(inner, tiny, -g * total)
    hi = np.where(inner, np.nextafter(width, 0.0), -tiny)
    offset = np.where(inner, 0.5 * width, 0.5 * lo)
    target = 1.0 / g
    active = np.arange(k.size)
    for it in range(RANK_ONE_MAX_STEPS):
        if active.size == 0:
            break
        at, lft, rgt = offset[active], left[active], right[active]
        dist = gaps[pole[active]]
        dist -= at[:, None]
        here = np.arange(active.size)
        d_left, d_right = dist[here, lft], dist[here, rgt]
        np.divide(z, dist, out=dist)
        f = dist @ z - target[active]
        # Lengths in units of the distance to the nearer model pole keep the
        # squared terms in range when the levels span hundreds of decades.
        unit = np.minimum(np.abs(d_left), np.abs(d_right))
        dist *= unit[:, None]
        np.square(dist, out=dist)
        cuts = np.empty(2 * active.size, dtype=np.intp)
        cuts[0::2] = here * gaps.shape[0]
        cuts[1::2] = cuts[0::2] + rgt
        slopes = np.add.reduceat(dist.ravel(), cuts).reshape(-1, 2)
        lo_a = np.where(f < 0, at, lo[active])
        hi_a = np.where(f > 0, at, hi[active])
        if it == 0:
            # A root in the right half is measured from the right pole.
            move = inner & (f < 0)
            pole[move] = right[move]
            at[move] -= width[move]
            lo_a[move] -= width[move]
            hi_a[move] = -tiny
        # Near: the pole the root is measured from; far: the other one.
        near_left = pole[active] == lft
        s_near = np.where(near_left, slopes[:, 0], slopes[:, 1])
        s_far = np.where(near_left, slopes[:, 1], slopes[:, 0])
        d_near = -at / unit
        d_far = np.where(near_left, d_right, d_left) / unit
        spacing = np.where(near_left, width[active], -width[active]) / unit
        # f(x + t) ~ C + A / (d_near - t) + B / (d_far - t) matches f and f'
        # at x, with A = d_near**2 * s_near and B = d_far**2 * s_far.  Its
        # root nearest x solves C t^2 - a t + b = 0, which keeps a short
        # step exact; a step that takes most of the way to the pole is
        # exact in y = d_near - t, which solves C y^2 + beta y + gamma = 0.
        f_unit = f * unit
        a_near = d_near * s_near * d_near
        c = f_unit - d_near * s_near - d_far * s_far
        a = f_unit * (d_near + d_far) - d_near * d_far * (s_near + s_far)
        b = d_near * d_far * f_unit
        beta = c * spacing + a_near + d_far * s_far * d_far
        gamma = a_near * spacing
        step = at + unit * _quadratic_roots(c, -a, b)[0]
        small, large = (-unit * y for y in _quadratic_roots(c, beta, gamma))
        # The model's root in the bracket, else bisection.  A converged root
        # sits on its own bracket, so the bracket's ends count as inside.
        new = np.select(
            [
                (np.abs(step - at) < 0.5 * np.abs(at)) & (lo_a <= step) & (step <= hi_a),
                (lo_a <= small) & (small <= hi_a),
                (lo_a <= large) & (large <= hi_a),
            ],
            [step, small, large],
            0.5 * (lo_a + hi_a),
        )
        done = np.abs(new - at) <= RANK_ONE_STEP_TOL * np.abs(new)
        lo[active], hi[active], offset[active] = lo_a, hi_a, new
        active = active[~done]
    if active.size:
        raise NumericalRangeError(
            f"{active.size} secular roots did not converge in "
            f"{RANK_ONE_MAX_STEPS} steps"
        )
    return pole, offset


def _quadratic_roots(a2, a1, a0) -> tuple[np.ndarray, np.ndarray]:
    """(smaller, larger) roots by magnitude of a2 x^2 + a1 x + a0, stably."""
    norm = np.maximum(np.maximum(np.abs(a2), np.abs(a1)), np.abs(a0))
    a2, a1, a0 = a2 / norm, a1 / norm, a0 / norm
    q = -0.5 * (a1 + np.copysign(np.sqrt(np.abs(a1 * a1 - 4.0 * a2 * a0)), a1))
    return a0 / q, q / a2


def gap_scan(
    h0: InitialHamiltonian,
    hw: DiagonalHamiltonian,
    points: int = DEFAULT_GRID_POINTS,
) -> GapCurve:
    """Track the two lowest eigenvalues across the schedule.

    With the default driver, H(s) = diag(a) - c |u><u| for
    a = c + s * D and c = (1 - s) * scale.  The lowest eigenvalue is the
    secular root in (a_0 - c, a_0); the next is the root in (a_0, a_1),
    or a_0 itself when the minimum of D is tied.  Each sample costs
    O(K) per bisection step for K distinct values of D, and s = 0 and
    s = 1 are exact closed forms.  Other drivers take one dense
    eigensolve, O(N^3), per sample.

    Args:
        h0: Driver Hamiltonian.
        hw: Problem Hamiltonian.
        points: Size of the uniform grid on [0, 1], endpoints included.

    Returns:
        GapCurve over uniform_grid(points).
    """
    grid = uniform_grid(points)
    if h0.dim != hw.dim:
        raise DimensionMismatchError(f"driver dim {h0.dim} != problem dim {hw.dim}")
    if h0.is_default:
        levels, counts = np.unique(hw.diagonal, return_counts=True)
        offsets = levels - levels[0]
        coupling = (1.0 - grid) * h0.scale
        pole0 = coupling + grid * levels[0]
        # Exact where every pole coincides (s = 0, or one level) and at
        # s = 1, where the coupling vanishes; a tied minimum keeps a_0.
        lambda0 = pole0 - coupling
        lambda1 = pole0.copy()
        if levels.size > 1:
            inner = (grid > 0.0) & (grid < 1.0)
            s, c = grid[inner], coupling[inner]
            weights = counts / hw.dim
            lambda0[inner] = pole0[inner] + secular_roots(
                offsets, weights, s, 1.0 / c, -c, 0.0
            )
            if counts[0] == 1:
                lambda1[inner] += secular_roots(
                    offsets, weights, s, 1.0 / c, 0.0, s * offsets[1]
                )
                lambda1[grid == 1.0] = levels[1]
    else:
        import scipy.linalg

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
    With the default driver the difference is diag(D - scale) +
    scale |u><u|, and its extreme eigenvalues are two secular roots: the
    largest in (e_max, e_max + scale) - scale, the smallest in
    (e_0, e_1) - scale, or e_0 - scale itself when the minimum of D is
    tied.  Other drivers take one dense eigvalsh, O(N^3).
    """
    if h0.dim != hw.dim:
        raise DimensionMismatchError(f"driver dim {h0.dim} != problem dim {hw.dim}")
    if not h0.is_default:
        diff = -h0.dense()
        diff[np.diag_indices(hw.dim)] += hw.diagonal
        vals = np.linalg.eigvalsh(diff)
        return float(np.max(np.abs(vals)))
    scale = h0.scale
    levels, counts = np.unique(hw.diagonal, return_counts=True)
    offsets = levels - levels[0]
    lo, hi = [offsets[-1]], [offsets[-1] + scale]
    if counts[0] == 1:
        lo.append(0.0)
        hi.append(offsets[1])
    roots = secular_roots(offsets, counts / hw.dim, 1.0, -1.0 / scale, lo, hi)
    base = levels[0] - scale
    bottom = base + roots[1] if counts[0] == 1 else base
    return float(max(abs(base + roots[0]), abs(bottom)))


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
        NumericalRangeError: When an estimate does not fit in float64.
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
    try:
        t_heuristic = dmax / (g_min * g_min)
        t_rigorous = 1e5 * (1.0 / delta) ** 2 * (dmax**3 / floor**4)
    except (OverflowError, ZeroDivisionError):  # a power left float range
        t_heuristic = t_rigorous = math.inf
    if not (math.isfinite(t_heuristic) and math.isfinite(t_rigorous)):
        raise NumericalRangeError(
            f"runtime estimates for g_min {g_min!r}, gap floor {floor!r} and "
            f"delta_max {dmax!r} do not fit in float64"
        )
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
    tied = degeneracy_check(DiagonalHamiltonian(scal)).witnesses
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

"""Spectral analysis of the annealing interpolation.

Provides the smallest eigenpair queries, gap curves over a schedule grid,
degeneracy detection on the problem diagonal, spectral norms, runtime
estimates, and the end-of-schedule gap diagnostics that relate the
spectrum at s = 1 to the instance's separation vector.

With the default driver scale * (I - |u><u|), where u is the uniform
superposition, every operator analysed here is a diagonal plus a rank-one
term.  Its eigenvalues are then roots of a secular equation over the
distinct diagonal levels (Golub 1973).  secular_roots finds them from the
levels and weights alone, by a rational iteration inside a kept bracket,
without forming a matrix; the gap scan, delta_max and rank_one_eigh each
call it once, and rank_one_vectors forms eigenvectors from its roots a
block at a time.  rank_one_evolve runs evolve's default-driver schedule
on these three in the level basis.  It solves every stride-th slice, and
the last, from the bracket midpoints, and starts every other slice's roots
from those of the anchors around it.  The stride is ANCHOR in a schedule
of at least WARM_MIN_STEPS slices and 1 in a shorter one.  Other drivers
take the dense path.

The levels and weights stay the same for every coupling, so a
far_pole_fit, built once per problem, serves every step of every root
k > 0: the poles within FIT_REACH bracket widths of the bracket are
summed, and Chebyshev series of degree FIT_DEGREE stand in for the rest,
so a step costs O(window + FIT_DEGREE) instead of O(K).  Its build costs
O(K^1.5) on evenly spread levels, and rank_one_evolve builds one once the
slices times K^1.5 reach FIT_MIN_WORK.  The gap scan and delta_max find
one or two roots per coupling, too few to pay for a fit, and root 0, whose
bracket grows without bound with the coupling, always sums all K poles.

Root steps, weights and eigenvectors all start from the gaps
(levels_j - levels[pole]) - offset, each level difference rounded once
and the offset subtracted in a pass of its own.  _level_gaps takes the
level differences from one k = 2 matrix product, exact in any BLAS
summation order: as a third term of the product the offsets would be
rounded in an order the BLAS kernel picks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateGapError, NumericalRangeError, check_count
from .errors import is_finite_real, is_real
from .hamiltonians import (
    DiagonalHamiltonian,
    HermitianOperator,
    InitialHamiltonian,
    check_pair,
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
#: secular_roots takes a root as final once a step moves it by at most this
#: fraction of its offset from its pole; the next step of a quadratically
#: convergent iteration is then far below float64 resolution.
RANK_ONE_STEP_TOL = 1e-9
#: Steps after which secular_roots gives up on a root that has not converged.
RANK_ONE_MAX_STEPS = 64
#: The secular_roots kernel, rank_one_eigh's weight loop and evolve's slice
#: product take rows in blocks of this many elements over K, bounding temporaries.
RANK_ONE_BLOCK = 1 << 17
#: A far-pole fit sums the poles within this many bracket widths of a
#: bracket exactly and interpolates the others...
FIT_REACH = 2.0
#: ...by Chebyshev series of this degree, one each for their sum and for
#: their slopes left and right of the bracket.
FIT_DEGREE = 15
# far_pole_fit fits the poles beyond a leaf width of sqrt(K) brackets by
# series of _LEAF_DEGREE, converging as (3 + sqrt 8)**-degree; under
# _LEAF_MIN levels, leaves cost more numpy calls than they save.
_LEAF_MIN = 256
_LEAF_DEGREE = 22
#: The anchor stride: rank_one_evolve solves every ANCHOR-th slice, and the
#: last, from the bracket midpoints and starts the slices between from
#: those roots...
ANCHOR = 8
#: ...in schedules of at least this many slices, whose anchors lie at most
#: a quarter of the schedule apart; shorter ones take stride 1, so every
#: slice is an anchor.  On a 2-core machine at one BLAS thread, anchors paid
#: from about 32 slices at K = 128 and 1024, and a fit from about 32 slices
#: at K = 128, 12 at 256, 3 at 512, 2 at 1024 and 1 at 2048 and 4096.
WARM_MIN_STEPS = 32
#: S slices over K levels build a far_pole_fit once S * K**1.5 reaches this.
FIT_MIN_WORK = 40000


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
        gap: lambda1 - lambda0, nonnegative by construction; with the
            default driver it is formed before the large energy terms are
            added (see gap_scan), so it keeps its relative accuracy.
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


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def rank_one_eigh(
    levels, weights, couplings, guess=None, fit=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues of diag(levels) - g * |z><z| and their vector weights.

    One problem per coupling g.  The eigenvalues are the K roots from
    secular_roots, started from guess when one is given.  The weights zhat
    make the computed roots exact (Gu & Eisenstat 1995), and
    rank_one_vectors forms the eigenvectors from them.  A problem costs
    O(K^2): a few steps per root, each O(K) or, with fit, O(window +
    FIT_DEGREE), and O(K) per weight.

    Args:
        levels: Strictly increasing diagonal, shape (K,).
        weights: z_j**2 > 0, shape (K,).
        couplings: Positive g per problem, shape (S,).
        guess: Optional (pole, offset) start, each of shape (S, K), in the
            format of the result.  When both are transposes of C-contiguous
            (K, S) arrays, as rank_one_evolve lays them out, the roots are
            written into them and returned as they are; otherwise into copies.
        fit: Optional far_pole_fit of levels and weights for roots 1 .. K - 1.

    Returns:
        (pole, offset, zhat), each of shape (S, K): root k of problem s is
        levels[pole[s, k]] + offset[s, k], ascending in k, and zhat[s] are
        the problem's weights.  No temporary exceeds RANK_ONE_BLOCK
        elements or the S x K result.

    Raises:
        NumericalRangeError: When a root has not converged after
            RANK_ONE_MAX_STEPS steps, or when the roots or weights leave
            float range, as they do for levels closer than the smallest
            normal float.
    """
    levels = np.asarray(levels, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    couplings = np.atleast_1d(np.asarray(couplings, dtype=np.float64))
    size, count = levels.size, couplings.size
    if size == 1:
        return np.zeros((count, 1), np.intp), -couplings[:, None] * weights, np.ones((count, 1))
    if guess is not None:
        guess = tuple(np.ravel(part.T) for part in guess)
    roots = secular_roots(
        levels, weights, np.arange(size).repeat(count), np.tile(couplings, size), guess, fit
    )
    pole, offset = (root.reshape(size, count) for root in roots)
    # The weights are recomputed as a product over roots of
    # (level - root) / (level - pole), pairing root k > 0 with the one of its
    # bracketing poles farther from the level and root 0 with g + level -
    # levels[0]: every factor but root 0's lies in (0, 1), so no partial
    # product leaves float range.  The product runs in root order in every
    # blocking, so the blocks do not change it.
    zhat2 = _level_gaps(levels, pole[0], offset[0])
    zhat2 /= (levels - levels[0]) + couplings[:, None]
    step = max(1, RANK_ONE_BLOCK // max(1, count * size))
    for start in range(1, size, step):
        k = np.arange(start, min(start + step, size))
        ratio = _level_gaps(levels, pole[k].ravel(), offset[k].ravel()).reshape(k.size, count, size)
        far = np.maximum(np.abs(levels - levels[k - 1, None]), np.abs(levels - levels[k, None]))
        ratio *= np.reciprocal(far)[:, None]
        ratio[0] *= zhat2
        zhat2 = np.prod(ratio, axis=0)
        del ratio, far  # before the next block's are formed, not after
    # Root 0 was paired with g + levels - levels[0] instead of g.
    zhat = np.sqrt(np.abs(zhat2) * (1.0 + (levels - levels[0]) / couplings[:, None]))
    if not (np.all(np.isfinite(levels[pole] + offset)) and np.all(np.isfinite(zhat))):
        raise NumericalRangeError(
            "rank-one eigenpairs left float range; the levels are too close "
            "for their spread and couplings"
        )
    return pole.T, offset.T, zhat


def rank_one_vectors(levels, zhat, pole, offset) -> np.ndarray:
    """Unit eigenvectors, as rows, of the roots levels[pole] + offset of
    rank_one_eigh problems with weights zhat: zhat_j / (levels_j - root).

    The last axis of pole and offset runs over a problem's roots, that of
    zhat over its weights, and any leading axes over problems."""
    vec = _level_gaps(levels, pole.ravel(), offset.ravel()).reshape(*pole.shape, levels.size)
    np.divide(zhat[..., None, :], vec, out=vec)
    # The nearest level is the root's pole, so this scaling keeps every
    # entry at most max(zhat) and the squares in range.
    vec *= np.abs(offset[..., None])
    vec /= np.sqrt(np.einsum("...j,...j->...", vec, vec))[..., None]
    return vec


def _level_gaps(levels, pole, offset, out=None) -> np.ndarray:
    """(levels_j - levels[pole_r]) - offset_r, one row r per root.

    A level difference less the offset keeps close levels accurate.  The
    differences are the k = 2 product [levels[pole_r], 1] @ [-1; levels]:
    both products in an entry are exact, so it is rounded once, as by the
    subtraction, in any summation order, with or without FMA.  The offset
    takes a pass of its own; as a third term it would be rounded in an
    order that the BLAS kernel picks.
    """
    lhs, rhs = np.empty((pole.size, 2)), np.empty((2, levels.size))
    lhs[:, 0], lhs[:, 1] = levels[pole], 1.0
    rhs[0], rhs[1] = -1.0, levels
    gaps = np.matmul(lhs, rhs, out=out)
    gaps -= offset[:, None]
    return gaps


def rank_one_evolve(scale, diagonal, dt, steps, drift):
    """evolve's default-driver schedule: steps midpoint slices of length dt
    from the uniform state, run exactly in the level basis of diagonal.

    The uniform start state is constant on each set of equal diagonal
    entries, and H(s) keeps the span of those sets.  In their orthonormal
    indicator basis, H(s) = c * I + s * (diag(e) - (c / s) |w><w|) with
    c = (1 - s) * scale, distinct values e_j of multiplicity m_j and
    w_j = sqrt(m_j / N).  rank_one_eigh gives the roots and vector weights
    of a part of the schedule at a time.  rank_one_vectors forms the
    eigenvectors of RANK_ONE_BLOCK / K**2 slices in one call, or, with more
    levels, those of one slice in blocks of RANK_ONE_BLOCK / K rows, and
    each slice applies its own in turn.

    The anchors, every stride-th slice and the last, are solved once each
    from the bracket midpoints.  Every other slice starts each root from
    the roots of the two anchors around it: interpolated linearly in the
    slice index when both share a pole, else at the nearer anchor's.  The
    stride is ANCHOR in a schedule of at least WARM_MIN_STEPS slices.  A
    shorter schedule takes stride 1 and solves every slice from the
    midpoints, as its anchors would lie too far apart to give good starts.
    Every root step uses one far_pole_fit once the slices times K^1.5 reach
    FIT_MIN_WORK, and sums all K poles in a smaller schedule.
    The parts hold RANK_ONE_BLOCK / K slices rounded up to a whole stride:
    up to ANCHOR - 1 more, so ANCHOR at stride ANCHOR past RANK_ONE_BLOCK /
    ANCHOR levels.  Each part solves its anchors and the next part's first
    slice, which it carries there.  An anchor depends only on its coupling, so no
    root depends on RANK_ONE_BLOCK.

    Levels closer than the smallest normal float are merged first:
    rank_one_eigh refuses them, as the reciprocals of their distances
    leave float range.  gap_scan and delta_max keep every distinct value,
    since their s = 1 endpoint is the diagonal itself, exactly.

    Returns the final state in the computational basis and the largest
    norm drift seen, starting from drift.
    """
    levels, inverse, counts = np.unique(
        diagonal, return_inverse=True, return_counts=True
    )
    first = np.r_[True, np.diff(levels) >= np.finfo(np.float64).tiny]
    group = np.cumsum(first) - 1
    levels, inverse = levels[first], group[inverse]
    counts = np.bincount(group, weights=counts)
    weights = counts / diagonal.size
    psi = np.sqrt(weights).astype(np.complex128)
    s_mid = (np.arange(steps) + 0.5) / steps
    coupling = (1.0 - s_mid) * scale
    couplings = coupling / s_mid
    block = max(1, RANK_ONE_BLOCK // levels.size)
    # The eigenvectors of batch slices fill a block together; past half a
    # block of levels, a slice forms its own a block of rows at a time.
    batch = max(1, block // levels.size)
    slices = _slice_roots(levels, weights, couplings, block)
    for first in range(0, steps, batch):
        pole, offset, zhat = (np.array(x) for x in zip(*itertools.islice(slices, batch)))
        together = rank_one_vectors(levels, zhat, pole, offset) if batch > 1 else None
        for i, k in enumerate(range(first, first + len(zhat))):
            phases = np.exp(-1j * dt * (coupling[k] + s_mid[k] * (levels[pole[i]] + offset[i])))
            # The real eigenvectors act on the real and imaginary parts as
            # the two columns of one matrix product.
            state, new = psi.view(np.float64).reshape(-1, 2), np.zeros((levels.size, 2))
            for rows in range(0, levels.size, block):
                b = slice(rows, rows + block)
                vecs = together[i] if batch > 1 else rank_one_vectors(
                    levels, zhat[i], pole[i, b], offset[i, b]
                )
                amps = phases[b] * (vecs @ state).view(np.complex128).ravel()
                new += vecs.T @ amps.view(np.float64).reshape(-1, 2)
            psi = new.view(np.complex128).ravel()
            drift = max(drift, abs(float(np.linalg.norm(psi)) - 1.0))
        # Freed before the next batch forms its vectors, not after.
        del together, vecs
    psi = psi[inverse] / np.sqrt(counts[inverse])
    return psi, max(drift, abs(float(np.linalg.norm(psi)) - 1.0))


def _slice_roots(levels, weights, couplings, block):
    """rank_one_eigh's (pole, offset, zhat) for each slice, in order, of the
    schedule whose slice couplings are couplings, with the warm starts that
    rank_one_evolve describes.  The slices go in parts of block rounded up
    to a whole anchor stride, so a part holds up to stride - 1 slices more
    than block."""
    steps = couplings.size
    stride = ANCHOR if steps >= WARM_MIN_STEPS else 1
    block = -(-block // stride) * stride
    fit = far_pole_fit(levels, weights) if steps * levels.size**1.5 >= FIT_MIN_WORK else None
    for start in range(0, steps, block):
        part = np.arange(start, min(start + block, steps))
        at_anchor = (part % stride == 0) | (part == steps - 1)
        # The part's anchors and the one after them: the next part's first
        # slice, which this part solves and carries there, or the last slice.
        end = min(start + block, steps - 1)
        anchors = np.r_[np.arange(start, end, stride), end]
        warm = part[~at_anchor]
        below = (warm - start) // stride
        above = below + 1
        # The starts take one slice per column, so rank_one_eigh's root-major
        # rows are their memory and the roots land in place.  Made before the
        # anchors' temporaries, they do not pin the top of the heap.
        pole = np.empty((levels.size, warm.size), np.intp)
        offset = np.empty((levels.size, warm.size))
        # Past the first part, the first anchor is the one carried in; the
        # last part may hold no other.
        own = anchors[1 if start else 0:]
        if own.size:
            cold = rank_one_eigh(levels, weights, couplings[own], None, fit)
            if start:
                cold = tuple(np.concatenate(pair) for pair in zip(carried, cold))
        else:
            cold = carried
        carried = tuple(x[-1:].copy() for x in cold)
        t = (warm - anchors[below]) / (anchors[above] - anchors[below])
        poles, offsets = cold[0].T, cold[1].T
        near = np.where(t > 0.5, above, below)
        np.take(poles, near, axis=1, out=pole)
        np.take(offsets, below, axis=1, out=offset)
        offset += t * (np.take(offsets, above, axis=1) - offset)
        # A root whose anchors differ in pole starts at the nearer one's root.
        split = np.take(poles, below, axis=1) != np.take(poles, above, axis=1)
        np.copyto(offset, np.take(offsets, near, axis=1), where=split)
        solved = zip(*cold)
        if warm.size:
            warmed = zip(*rank_one_eigh(levels, weights, couplings[warm], (pole.T, offset.T), fit))
        if start + block >= steps:
            del fit  # solved: freed before the slices' vectors are formed
        for is_anchor in at_anchor:
            yield next(solved) if is_anchor else next(warmed)


def secular_roots(
    levels, weights, k, g, guess=None, fit=None
) -> tuple[np.ndarray, np.ndarray]:
    """Root k of sum_j weights_j / (levels_j - x) = 1 / g, one per row.

    These are the eigenvalues of diag(levels) - g * |z><z| with
    z_j**2 = weights_j.  Root k > 0 lies between the poles levels[k - 1]
    and levels[k], for either sign of g; root 0 lies in
    (levels[0] - g * sum(weights), levels[0]) and needs g > 0.  Each root
    is held as an offset from one of its two model poles and found by the
    two-pole rational model of Bunch, Nielsen & Sorensen (1978), the
    "middle way" of LAPACK's dlaed4 (Li 1993), inside a kept bracket: a
    model step that leaves the bracket is replaced by bisection.  Without a
    guess, a root starts at its interval's midpoint and is measured from
    the pole on the side the secular function's sign there points to.  A
    guessed root skips that pick: it starts at the guessed offset, clipped
    into the bracket, from the guessed pole (the left one unless the guess
    names the right), and is measured from the other pole once an iterate
    lies three times nearer to it.  A good guess saves steps.

    Without a fit, every step of a root sums all K poles.  With a
    far_pole_fit, a step of a root k > 0 sums the poles of its bracket's
    window and evaluates one Chebyshev series for the rest, at
    O(window + FIT_DEGREE); root 0, whose bracket grows without bound
    with g, always takes the O(K) sum.

    Args:
        levels: Strictly increasing diagonal, shape (K,), K >= 2.
        weights: Positive weights, shape (K,).
        k, g: Root index and coupling per row, any number of rows; they go
            in blocks of RANK_ONE_BLOCK elements, so the temporaries stay
            bounded.
        guess: Optional (pole, offset) start per row, in the format of the
            result.  The roots are written into these two arrays.
        fit: Optional far_pole_fit of levels and weights.

    Returns:
        (pole, offset) per row; the root is levels[pole] + offset.

    Raises:
        NumericalRangeError: When a root has not converged after
            RANK_ONE_MAX_STEPS steps.
    """
    pole, offset = (np.empty(k.size, dtype=np.intp), np.empty(k.size)) if guess is None else guess
    z, total = np.sqrt(weights), weights.sum()

    def solve(rows, near):
        start_at = None if guess is None else (pole[rows], offset[rows])
        pole[rows], offset[rows] = _secular_block(levels, z, total, k[rows], g[rows], start_at, near)

    step = max(1, RANK_ONE_BLOCK // levels.size)
    if fit is None:
        for start in range(0, k.size, step):
            solve(slice(start, start + step), None)
        return pole, offset
    zero = np.flatnonzero(k == 0)
    for start in range(0, zero.size, step):
        solve(zero[start:start + step], None)
    # A fitted row holds its window, padded to the widest, and three series.
    brackets = np.arange(1, levels.size)
    widest = (brackets - fit.lo).max() + (fit.hi - brackets).max() + 1
    step = max(1, RANK_ONE_BLOCK // (widest + 3 * (FIT_DEGREE + 1)))
    for start in range(0, k.size, step):
        rows = start + np.flatnonzero(k[start:start + step])
        if rows.size:
            solve(rows, fit)
    return pole, offset


@dataclass(frozen=True, eq=False)
class FarPoleFit:
    """Which poles secular_roots sums at each step of a root k > 0, and the
    Chebyshev series that stand in for the others; see far_pole_fit.

    Attributes:
        lo, hi: Root k's window of poles, levels[lo[k - 1]:hi[k - 1]].
        coef: Shape (3, K - 1, FIT_DEGREE + 1): per root k > 0, the series
            of the far poles' sum and of their slopes left and right of the
            bracket, zero where no pole lies outside the window.
    """

    lo: np.ndarray
    hi: np.ndarray
    coef: np.ndarray


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def far_pole_fit(levels, weights) -> FarPoleFit:
    """The far-pole fit of the roots k > 0 of
    sum_j weights_j / (levels_j - x) = 1 / g, for any g.

    Root k's bracket runs from levels[k - 1] to levels[k].  Its window is
    the run of poles within FIT_REACH bracket widths of it; every other
    pole lies at least that far away, so its terms are smooth on the
    bracket.  Their sum and their squared terms summed left and right of
    the bracket are taken at the FIT_DEGREE + 1 Chebyshev nodes and turned
    into series by a cosine matrix.  Brackets go in leaves of about sqrt(K):
    the poles beyond a leaf's near zone (within a leaf width of it, or in
    its windows) enter by series fitted once per leaf, the others term by
    term.  Each distance is a level difference less a node's offset from
    the left pole of its bracket or leaf, rounded as _level_gaps rounds
    them, and each term is scaled by that width.  The build costs O(K^1.5)
    on evenly spread levels, O(K^2) at worst; no bit depends on
    RANK_ONE_BLOCK, nor does a temporary exceed it or a leaf's nodes times K.
    """
    size = levels.size
    right = np.arange(1, size)
    left = right - 1
    width = levels[right] - levels[left]
    lo, hi = _fit_windows(levels, left, right, FIT_REACH * width)
    per = round(math.sqrt(size)) if size >= _LEAF_MIN else size
    first = np.arange(0, size - 1, per)
    last = np.minimum(first + per, size - 1)
    span = levels[last] - levels[first]
    near_lo, near_hi = _fit_windows(levels, first, last, span)
    np.minimum(near_lo, np.minimum.reduceat(lo, first), out=near_lo)
    np.maximum(near_hi, np.maximum.reduceat(hi, first), out=near_hi)
    far = np.flatnonzero((near_lo > 0) | (near_hi < size))
    leaf = np.zeros((3, first.size, _LEAF_DEGREE + 1))
    step = max(1, RANK_ONE_BLOCK // ((_LEAF_DEGREE + 1) * size))
    for part in (far[start:start + step] for start in range(0, far.size, step)):
        leaf[:, part] = _far_samples(levels, weights, first[part], span[part], near_lo[part],
                                     near_hi[part], _LEAF_NODES[0])
    leaf = _chebyshev_series(leaf, _LEAF_NODES[1])
    # coef first holds each bracket's samples, then their series.
    spots, cosines = _FIT_NODES
    coef = np.empty((3, size - 1, spots.size))
    for i, at in enumerate(map(slice, near_lo, near_hi)):
        step = max(1, RANK_ONE_BLOCK // (spots.size * max(at.stop - at.start, _LEAF_DEGREE + 1)))
        for start in range(first[i], last[i], step):
            part = np.arange(start, min(start + step, last[i]))
            coef[:, part] = _far_samples(levels[at], weights[at], part - at.start, width[part],
                                         lo[part] - at.start, hi[part] - at.start, spots)
            if at.start or at.stop < size:
                x = (levels[part] - levels[first[i]])[:, None] + width[part, None] * spots
                fitted = _far_sums(leaf, [i], x.ravel() / span[i])
                ratio = width[part, None] / span[i]
                coef[:, part] += np.reshape(fitted, (3, *x.shape)) * [ratio, ratio**2, ratio**2]
    step = max(1, RANK_ONE_BLOCK // (3 * spots.size))
    for start in range(0, size - 1, step):
        coef[:, start:start + step] = _chebyshev_series(coef[:, start:start + step], cosines)
    return FarPoleFit(lo, hi, coef)


def _far_samples(levels, weights, base, scale, lo, hi, spots) -> np.ndarray:
    """Sums of weights_j * t_j, t_j = scale_r / (levels_j - x), over the
    poles j outside levels[lo_r:hi_r] at the nodes x = levels[base_r] +
    scale_r * spots of each interval r, and of weights_j * t_j**2 left and
    right of them; shape (3, intervals, nodes)."""
    size, nodes = levels.size, spots.size
    terms = _level_gaps(levels, base.repeat(nodes), np.outer(scale, spots).ravel())
    np.divide(scale.repeat(nodes)[:, None], terms, out=terms)
    terms = terms.reshape(base.size, nodes, size)
    column = np.arange(size)
    sides = np.zeros((base.size, size, 2))
    np.copyto(sides[..., 0], weights, where=column < lo[:, None])
    np.copyto(sides[..., 1], weights, where=column >= hi[:, None])
    # Zeroed, as a pole at a node makes its term infinite.
    np.copyto(terms, 0.0, where=((column >= lo[:, None]) & (column < hi[:, None]))[:, None])
    # One product per interval, so no sum depends on how many are formed.
    f = np.matmul(terms, sides).sum(axis=-1)
    np.square(terms, out=terms)
    return np.concatenate([f[None], np.matmul(terms, sides).transpose(2, 0, 1)])


def _chebyshev_series(samples, cosines) -> np.ndarray:
    """The series of the samples at the Chebyshev nodes, the last axis."""
    # Each coefficient but the mean sums the samples less their mean in node
    # order, and is rounded relative to their spread, not to their size.
    samples = samples.transpose(2, 0, 1).copy()
    series = np.zeros(samples.shape)
    series[0] = mean = samples.mean(axis=0)
    samples -= mean
    for node, values in enumerate(samples):
        series[1:] += cosines[1:, node, None, None] * values
    return series.transpose(1, 2, 0)


def _chebyshev(degree) -> tuple[np.ndarray, np.ndarray]:
    """A Chebyshev series' nodes as fractions of its interval and the cosine matrix
    from values there to coefficients, by math.cos: np.cos at import costs 0.25 MB."""
    angles = [(j + 0.5) * (math.pi / (degree + 1)) for j in range(degree + 1)]
    cosines = np.array([[math.cos(m * a) for a in angles] for m in range(degree + 1)])
    cosines *= 2.0 / (degree + 1)
    cosines[0] *= 0.5
    return np.array([0.5 * (1.0 + math.cos(a)) for a in angles]), cosines


_FIT_NODES, _LEAF_NODES = _chebyshev(FIT_DEGREE), _chebyshev(_LEAF_DEGREE)


def _fit_windows(levels, left, right, reach) -> tuple[np.ndarray, np.ndarray]:
    """The poles levels[lo:hi] whose differences from the bracket's nearer
    end are within reach, per bracket (left, right).  A bisection on the
    pole index finds lo and hi; each test compares one level difference,
    rounded once, so an exact shift of the levels moves no window."""
    lo, top = np.zeros_like(left), left.copy()
    bottom, hi = right.copy(), np.full_like(right, levels.size - 1)
    for _ in range(levels.size.bit_length()):
        mid = (lo + top) // 2
        near = levels[mid] - levels[left] >= -reach
        lo, top = np.where(near, lo, mid + 1), np.where(near, mid, top)
        mid = (bottom + hi + 1) // 2
        near = levels[mid] - levels[right] <= reach
        bottom, hi = np.where(near, mid, bottom), np.where(near, hi, mid - 1)
    return lo, hi + 1


def _direct_sums(levels, z, right, pole, offset, buf):
    """The secular sum at the roots levels[pole] + offset over all K poles,
    its slopes split before the right pole, the distances to the poles
    left and right of the bracket, and the unit the slopes are scaled by:
    (f, slope_left, slope_right, d_left, d_right, unit)."""
    dist = _level_gaps(levels, pole, offset, out=buf[: pole.size])
    # Each row's sums split before its right pole.
    cuts = np.empty((pole.size, 2), dtype=np.intp)
    cuts[:, 0] = np.arange(pole.size) * levels.size
    np.add(cuts[:, 0], right, out=cuts[:, 1])
    d_right = dist.ravel()[cuts[:, 1]]
    d_left = dist.ravel()[cuts[:, 1] - 1]
    np.divide(z, dist, out=dist)
    # Per row, since BLAS matrix-vector products round by row position.
    f = np.matmul(dist[:, None, :], z)[:, 0]
    # Lengths in units of the distance to the nearer model pole keep the
    # squared terms in range when the levels span hundreds of decades.
    unit = np.minimum(np.abs(d_left), np.abs(d_right))
    dist *= unit[:, None]
    np.square(dist, out=dist)
    slopes = np.add.reduceat(dist.ravel(), cuts.ravel()).reshape(-1, 2)
    return f, slopes[:, 0], slopes[:, 1], d_left, d_right, unit


def _windows(levels, z, fit, k):
    """The window of each root k > 0 of a block, for _fitted_sums: its
    levels and square-root weights, the bounds of its sums, and its
    bracket's place in fit.  A row holds the window's left part, ending at the
    left pole, then its right part, starting at the right pole; the parts
    are padded to the widest row's, with one column to spare.  Each row's
    sums run over its own poles only, so the padding leaves their bits
    alone."""
    at = k - 1
    lo, hi = fit.lo[at], fit.hi[at]
    n_left = (k - lo).max()
    index = np.arange(1 - n_left, (hi - k).max() + 2) + (k - 1)[:, None]
    np.clip(index, 0, levels.size - 1, out=index)
    bounds = np.empty((k.size, 3), dtype=np.intp)
    bounds[:, 1] = np.arange(k.size) * index.shape[1] + n_left
    bounds[:, 0] = bounds[:, 1] - (k - lo)
    bounds[:, 2] = bounds[:, 1] + (hi - k)
    return levels[index], z[index], bounds, at


def _fitted_sums(fit, window, width, near_left, offset):
    """_direct_sums for the roots k > 0 of a block from their _windows: the
    window's poles summed, the far ones from the bracket's series in fit."""
    levels, z, bounds, at = window
    far = _far_sums(fit.coef, at, np.where(near_left, offset, offset + width) / width)
    n_left = bounds[0, 1]
    # The pole's level ends the left part or starts the right one.
    pole = np.where(near_left, levels[:, n_left - 1], levels[:, n_left])
    dist = np.subtract(levels, pole[:, None])
    dist -= offset[:, None]
    d_left, d_right = dist[:, n_left - 1].copy(), dist[:, n_left].copy()
    unit = np.minimum(np.abs(d_left), np.abs(d_right))
    np.divide(z, dist, out=dist)
    f = np.add.reduceat((z * dist).ravel(), bounds.ravel()).reshape(-1, 3)
    f = f[:, 0] + f[:, 1] + far[0] / width
    dist *= unit[:, None]
    np.square(dist, out=dist)
    slopes = np.add.reduceat(dist.ravel(), bounds.ravel()).reshape(-1, 3)
    scale = np.square(unit / width)
    return f, slopes[:, 0] + far[1] * scale, slopes[:, 1] + far[2] * scale, d_left, d_right, unit


def _far_sums(coef, at, x):
    """The series coef[at], one per x or one for all, at x, the place of each
    root in its bracket (or leaf) as a fraction of it."""
    # T_0 .. T_degree at x mapped to [-1, 1], each run of them by
    # T_(n + j) = 2 T_n T_j - T_(n - j).
    degree = coef.shape[-1] - 1
    basis = np.empty((degree + 1, x.size))
    basis[0] = 1.0
    basis[1] = 2.0 * x - 1.0
    n = 1
    while n < degree:
        top = min(2 * n, degree)
        np.multiply(basis[1 : top - n + 1], 2.0 * basis[n], out=basis[n + 1 : top + 1])
        basis[n + 1 : top + 1] -= basis[2 * n - top : n][::-1]
        n = top
    basis = np.ascontiguousarray(basis.T)
    # Per row: einsum sums each row's products in the same order at any row
    # count when both operands run contiguously over the degree.
    return [np.einsum("rm,rm->r", np.take(series, at, axis=0), basis) for series in coef]


# A degenerate model, such as one at an exact zero of f, gives inf or NaN
# candidates, which the bracket tests reject.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _secular_block(levels, z, total, k, g, start_at, fit) -> tuple[np.ndarray, np.ndarray]:
    """secular_roots on one block of rows, from the guesses start_at or None,
    by the far-pole fit fit or by direct sums."""
    inner = k > 0
    # Model poles: the two bracketing poles, or poles 0 and 1 for root 0.
    left, right = np.maximum(k - 1, 0), np.maximum(k, 1)
    width = levels[right] - levels[left]
    tiny = np.nextafter(0.0, 1.0)
    # The poles stay outside the bracket, so no iterate lands on one.
    lo = np.where(inner, tiny, -g * total)
    hi = np.where(inner, np.nextafter(width, 0.0), -tiny)
    if start_at is None:
        # The bracket's midpoint, measured from the left pole.
        pole = left.copy()
        offset = np.where(inner, 0.5 * width, 0.5 * lo)
    else:
        # Measured from the right pole, the bracket is mirrored.
        pole = np.where(inner & (start_at[0] == right), right, left)
        move = pole != left
        lo[move], hi[move] = -hi[move], -lo[move]
        offset = np.clip(start_at[1], lo, hi)
    target = 1.0 / g
    active = np.arange(k.size)
    # One buffer for every direct step's distances spares the allocator
    # fresh pages.
    if fit is None:
        buf = np.empty((k.size, levels.size))
    else:
        window = _windows(levels, z, fit, k)
    for it in range(RANK_ONE_MAX_STEPS):
        if active.size == 0:
            break
        at, lft = offset[active], left[active]
        if fit is None:
            sums = _direct_sums(levels, z, right[active], pole[active], at, buf)
        else:
            sums = _fitted_sums(fit, window, width[active], pole[active] == lft, at)
        f, slope_left, slope_right, d_left, d_right, unit = sums
        f -= target[active]
        lo_a = np.where(f < 0, at, lo[active])
        hi_a = np.where(f > 0, at, hi[active])
        if it == 0 and start_at is None:
            # A root in the right half is measured from the right pole.
            move = inner & (f < 0)
            pole[move] = right[move]
            at[move] -= width[move]
            lo_a[move] -= width[move]
            hi_a[move] = -tiny
        # Near: the pole the root is measured from; far: the other one.
        near_left = pole[active] == lft
        s_near = np.where(near_left, slope_left, slope_right)
        s_far = np.where(near_left, slope_right, slope_left)
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
        # The short model step, else the model's root small or large that
        # lies in the bracket, else bisection; each choice overrides those
        # after it.  A converged root sits on its own bracket, so the
        # bracket's ends count as inside.
        new = np.where((lo_a <= large) & (large <= hi_a), large, 0.5 * (lo_a + hi_a))
        new = np.where((lo_a <= small) & (small <= hi_a), small, new)
        short = (np.abs(step - at) < 0.5 * np.abs(at)) & (lo_a <= step) & (step <= hi_a)
        new = np.where(short, step, new)
        done = np.abs(new - at) <= RANK_ONE_STEP_TOL * np.abs(new)
        # A guessed root can move far from its pole.  Once it is three times
        # nearer the other pole, it is measured from that one, where its
        # offset keeps its digits, and it takes one more step there; the
        # bracket keeps its end on the side of the old pole.  Cold iterates
        # never leave their pole's half.
        flip = inner[active] & (np.abs(new) > 0.75 * width[active])
        if flip.any():
            rows = active[flip]
            top = np.nextafter(width[rows], 0.0)
            to_right = new[flip] > 0
            shift = np.where(to_right, -width[rows], width[rows])
            new[flip] += shift
            lo_a[flip] = np.where(to_right, np.maximum(lo_a[flip] + shift, -top), tiny)
            hi_a[flip] = np.where(to_right, -tiny, np.minimum(hi_a[flip] + shift, top))
            pole[rows] = left[rows] + right[rows] - pole[rows]
            done &= ~flip
        lo[active], hi[active], offset[active] = lo_a, hi_a, new
        if done.any():
            active = active[~done]
            if fit is not None and active.size:
                # Freed before the active rows' window is built, not after.
                del window
                window = _windows(levels, z, fit, k[active])
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

    With the default driver, H(s) = c * I + s * (diag(D) - g |u><u|) for
    c = (1 - s) * scale and g = c / s.  Over the K distinct values of D,
    the lowest eigenvalue is c + s times secular root 0, and the next is
    c + s times root 1, or c + s * min(D) itself when the minimum of D is
    tied.  Both roots are measured from the two lowest levels, so a sample
    costs O(K) per root-finding step and no K x K array is formed.  The
    gap is s times the difference of their distances from the lowest
    level: it never meets the large energy terms, so a constant shift of D
    that is exact in float64 leaves it bit-identical.  s = 0 and s = 1 are
    exact closed forms.  Other drivers take one dense eigensolve, O(N^3),
    per sample.

    Args:
        h0: Driver Hamiltonian.
        hw: Problem Hamiltonian.
        points: Size of the uniform grid on [0, 1], endpoints included.

    Returns:
        GapCurve over uniform_grid(points).
    """
    grid = uniform_grid(points)
    check_pair(h0, hw)
    if h0.is_default:
        levels, counts = np.unique(hw.diagonal, return_counts=True)
        coupling = (1.0 - grid) * h0.scale
        pole0 = coupling + grid * levels[0]
        # Exact where every pole coincides (s = 0, or one level) and at
        # s = 1, where the coupling vanishes; a tied minimum keeps pole0.
        lambda0 = pole0 - coupling
        lambda1 = pole0.copy()
        roots = 2 if counts[0] == 1 else 1
        lambda1[-1] = levels[roots - 1]
        gap = lambda1 - lambda0
        if levels.size > 1:
            s = grid[1:-1, None]
            k = np.tile(np.arange(roots), s.size)
            g = np.repeat(coupling[1:-1] / s[:, 0], roots)
            pole, offset = secular_roots(levels, counts / hw.dim, k, g)
            # Distances from the lowest level, zero for a tied second root;
            # each energy adds the large pole0 last, so it is rounded once.
            dist = np.zeros((s.size, 2))
            dist[:, :roots] = ((levels[pole] - levels[0]) + offset).reshape(-1, roots)
            lambda0[1:-1], lambda1[1:-1] = (pole0[1:-1, None] + s * dist).T
            gap[1:-1] = s[:, 0] * (dist[:, 1] - dist[:, 0])
    else:
        import scipy.linalg

        lambda0 = np.empty(grid.size)
        lambda1 = np.empty(grid.size)
        for k, s in enumerate(grid):
            mat = interpolation_dense(h0, hw, float(s))
            vals = scipy.linalg.eigh(mat, eigvals_only=True, subset_by_index=(0, 1))
            lambda0[k], lambda1[k] = float(vals[0]), float(vals[1])
        gap = lambda1 - lambda0
    return GapCurve(grid, lambda0, lambda1, gap)


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
    if not is_finite_real(tol):
        raise ConfigurationError(f"tolerance must be a finite number, got {tol!r}")
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
    With the default driver the difference is diag(D) + scale |u><u|
    - scale * I.  Over the K distinct values e of D, its smallest
    eigenvalue is secular root 1 with coupling -scale, in (e_0, e_1), less
    scale, or e_0 - scale itself when the minimum of D is tied; its largest
    lies in (e_max, e_max + scale) - scale.  Each is one O(K) root search.
    Other drivers take one dense eigvalsh, O(N^3).
    """
    check_pair(h0, hw)
    if not h0.is_default:
        diff = np.diag(hw.diagonal) - h0.dense()
        return float(np.max(np.abs(np.linalg.eigvalsh(diff))))
    scale = h0.scale
    levels, counts = np.unique(hw.diagonal, return_counts=True)
    if levels.size == 1:
        return float(max(abs(levels[0]), abs(levels[0] - scale)))
    weights = counts / hw.dim
    bottom = levels[0]
    if counts[0] == 1:
        pole, offset = secular_roots(levels, weights, np.array([1]), np.array([-scale]))
        bottom = levels[pole[0]] + offset[0]
    # Root 0 needs a positive coupling, so the top root of
    # diag(e) + scale |z><z| is found as minus root 0 of
    # diag(-e) - scale |z><z|, whose levels increase when reversed.
    flip = -levels[::-1]
    pole, offset = secular_roots(flip, weights[::-1], np.array([0]), np.array([scale]))
    top = -(flip[pole[0]] + offset[0])
    return float(max(abs(top - scale), abs(bottom - scale)))


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
        ConfigurationError: When g_min, dmax or gap_floor is not a real
            number (bools and strings are not), or delta is out of range.
        DegenerateGapError: When g_min (or gap_floor) is not positive.
        NumericalRangeError: When an estimate does not fit in float64.
    """
    floor = g_min if gap_floor is None else gap_floor
    for name, value in (("g_min", g_min), ("delta_max", dmax), ("gap_floor", floor)):
        if not is_real(value):
            raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    if g_min <= 0.0:
        raise DegenerateGapError(f"minimum gap must be positive, got {g_min}")
    if not (is_real(delta) and 0.0 < delta < 1.0):
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta!r}")
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
        gap_floor=float(floor),
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

"""The rank-one eigensolver of the default-driver schedule.

With the default driver scale * (I - |u><u|), where u is the uniform
superposition, every H(s) is a diagonal plus a rank-one term, whose
eigenvalues are the roots of a secular equation over the distinct diagonal
levels (Golub 1973).  secular_roots finds them from the levels and weights
alone, by a rational iteration inside a kept bracket, without forming a
matrix; spectral's gap scan and delta_max and rank_one_eigh each call it
once.  rank_one_evolve runs evolve's default-driver schedule on its roots
and weights in the level basis, starting most slices' roots from a
polynomial through those of the 8 nearest anchor slices, and applies each
slice as three Cauchy sums over blocks of scaled reciprocals
|offset| / (levels_j - root), forming no unit eigenvector.  A
far_pole_fit, built once per problem in O(K^1.5) on evenly spread levels,
cuts a step of every root but the lowest from O(K) to O(window +
FIT_DEGREE); rank_one_evolve builds one once its slices times K^1.5 reach
FIT_MIN_WORK.

Root steps, weights and reciprocals all start from the gaps
(levels_j - levels[pole]) - offset, each level difference rounded once
and the offset subtracted in a pass of its own (see _level_gaps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalRangeError

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
#: last, from the bracket midpoints and starts each slice between from the
#: roots of the _STENCIL anchors nearest it...
ANCHOR = 8
#: ...in schedules of at least this many slices, whose anchors lie at most
#: a quarter of the schedule apart; shorter ones take stride 1, so every
#: slice is an anchor.  On a 2-core machine at one BLAS thread, a fit paid
#: from about 32 slices at K = 128, 12 at 256, 3 at 512, 2 at 1024 and 1 at
#: 2048 and 4096.  With stencil starts, _slice_roots with anchors took, of
#: its time with every slice cold, 0.95 at K = 128 and 24 slices, 1.09 at 32
#: (the first with a fit), 0.94 at 40 and 0.85 at 64, and at K = 1024 1.03
#: at 24, 0.98 at 32, 1.01 at 48 and 0.98 at 64, within the 5 % noise
#: (medians of 4 alternating processes); the linear starts before them read
#: 1.04 at K = 128 and 32 slices and 0.95 at 40, so the crossover stayed.
WARM_MIN_STEPS = 32
# A warm slice's stencil: the anchors whose roots its start interpolates.
_STENCIL = 8
#: S slices over K levels build a far_pole_fit once S * K**1.5 reaches this.
FIT_MIN_WORK = 40000


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
        far = levels - levels[k - 1, None]  # level j to the farther of root k's poles
        np.subtract(levels[k, None], levels, out=far, where=np.arange(size) < k[:, None])
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
    """Unit eigenvectors, as rows, of the roots levels[pole] + offset of a
    rank_one_eigh problem with weights zhat, from the _reciprocals."""
    r, c2 = _reciprocals(levels, zhat * zhat, pole, offset)
    return np.sqrt(c2)[:, None] * r * zhat


def _reciprocals(levels, zhat2, pole, offset) -> tuple[np.ndarray, np.ndarray]:
    """r_kj = |offset_k| / (levels_j - root_k) per root levels[pole_k] + offset_k
    and c2 = 1 / (r**2 @ zhat2): unit eigenvector k is sqrt(c2_k) r_k zhat.
    The pole is the root's nearest level, so |r| <= 1 keeps r**2 in range.
    The squares go RANK_ONE_BLOCK / 4 elements at a time, so they add at
    most a quarter block to the temporaries."""
    r = _level_gaps(levels, pole, offset)
    np.divide(np.abs(offset)[:, None], r, out=r)
    step, norm2 = max(1, RANK_ONE_BLOCK // (4 * levels.size)), np.empty(pole.size)
    for at in range(0, pole.size, step):
        np.matmul(np.square(r[at:at + step]), zhat2, out=norm2[at:at + step])
    return r, 1.0 / norm2


def _level_gaps(levels, pole, offset) -> np.ndarray:
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
    gaps = lhs @ rhs
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
    of a part of the schedule at a time, and _slice_product applies each
    slice from them a block of RANK_ONE_BLOCK / K roots at a time.

    The anchors, every stride-th slice and the last, are solved once each
    from the bracket midpoints.  Every other slice starts each root from
    the roots of its stencil, the _STENCIL anchors nearest it: 4 on each
    side in the interior, the 8 nearest at the ends of the schedule, or
    every anchor of a schedule with fewer.  A root whose pole is the same
    at all of them starts at the Lagrange polynomial through their offsets
    in the slice index; on the bundled 512-slice schedule 92 % of the
    starts lie within RANK_ONE_STEP_TOL of the root, so one step settles
    them.  Any other root starts at the root of the nearer of the two
    anchors around the slice.  The stride is ANCHOR in a schedule of at
    least WARM_MIN_STEPS slices.  A shorter schedule takes stride 1 and
    solves every slice from the midpoints, as its anchors would lie too far
    apart to give good starts.
    Every root step uses one far_pole_fit once the slices times K^1.5 reach
    FIT_MIN_WORK, and sums all K poles in a smaller schedule.  The slices go
    in parts of RANK_ONE_BLOCK / K (see _slice_roots), on which no root depends.

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
    slices = _slice_roots(levels, weights, couplings, block)
    for k, (pole, offset, zhat) in enumerate(slices):
        phases = np.exp(-1j * dt * (coupling[k] + s_mid[k] * (levels[pole] + offset)))
        psi = _slice_product(levels, zhat, pole, offset, phases, psi, block)
        drift = max(drift, abs(float(np.linalg.norm(psi)) - 1.0))
    psi = psi[inverse] / np.sqrt(counts[inverse])
    return psi, max(drift, abs(float(np.linalg.norm(psi)) - 1.0))


def _slice_product(levels, zhat, pole, offset, phases, psi, block) -> np.ndarray:
    """V diag(phases) V^T psi for the rank_one_vectors V^T of the roots
    levels[pole] + offset, as zhat * r^T (phases * c2 * (r @ (zhat * psi)))
    over the _reciprocals of block roots at a time; the real r takes psi's
    real and imaginary parts as the two columns of one matrix product."""
    zhat2, state = zhat * zhat, (zhat * psi).view(np.float64).reshape(-1, 2)
    new = np.zeros((levels.size, 2))
    for rows in range(0, levels.size, block):
        b = slice(rows, rows + block)
        r, c2 = _reciprocals(levels, zhat2, pole[b], offset[b])
        amps = phases[b] * c2 * (r @ state).view(np.complex128).ravel()
        new += r.T @ amps.view(np.float64).reshape(-1, 2)
    return zhat * new.view(np.complex128).ravel()


def _slice_roots(levels, weights, couplings, block):
    """rank_one_eigh's (pole, offset, zhat) for each slice, in order, of the
    schedule whose slice couplings are couplings, with the warm starts that
    rank_one_evolve describes.  The slices go in parts of block rounded up
    to a whole anchor stride, so a part holds up to stride - 1 slices more
    than block.  A part solves the anchors that its slices and their
    stencils reach and no earlier part solved, and the anchors from its last
    stencil on carry into the next part.  An anchor depends only on its
    coupling and a start only on its stencil's anchors, so no root depends
    on block."""
    steps = couplings.size
    stride = ANCHOR if steps >= WARM_MIN_STEPS else 1
    block = -(-block // stride) * stride
    fit = far_pole_fit(levels, weights) if steps * levels.size**1.5 >= FIT_MIN_WORK else None
    anchors = np.r_[0:steps - 1:stride, steps - 1]
    width = min(_STENCIL, anchors.size)
    # solved holds the roots of anchors[have:done], one row each.
    have = done = 0
    for start in range(0, steps, block):
        part = np.arange(start, min(start + block, steps))
        # Each slice's anchor, or the last one before it.
        below = np.searchsorted(anchors, part, side="right") - 1
        at_anchor = anchors[below] == part
        warm, below_warm = part[~at_anchor], below[~at_anchor]
        # Each warm slice's stencil: 4 anchors on each side of it in the
        # interior, the 8 nearest at the ends of the schedule, or all of them.
        first = np.clip(below_warm - (_STENCIL // 2 - 1), 0, anchors.size - width)
        stencil = first[:, None] + np.arange(width)
        lo, hi = below[0], below[-1] + 1
        if warm.size:
            lo, hi = min(lo, stencil[0, 0]), max(hi, stencil[-1, -1] + 1)
        # The starts take one slice per column, so rank_one_eigh's root-major
        # rows are their memory and the roots land in place.  Made before the
        # anchors' temporaries, they do not pin the top of the heap.
        pole = np.empty((levels.size, warm.size), np.intp)
        offset = np.empty((levels.size, warm.size))
        if hi > done:
            cold = rank_one_eigh(levels, weights, couplings[anchors[done:hi]], None, fit)
            if done > have:  # after the anchors carried in
                cold = [np.concatenate(pair) for pair in zip(solved, cold)]
            solved, done = cold, hi
        solved, have = [x[lo - have:] for x in solved], lo
        if warm.size:
            # The nearer of the two anchors around the slice, the lower at a tie.
            near = below_warm + (2 * warm > anchors[below_warm] + anchors[below_warm + 1])
            nodes = anchors[stencil] - warm[:, None]
            _stencil_starts(nodes, stencil - have, near - have, solved, pole, offset)
            warmed = zip(*rank_one_eigh(levels, weights, couplings[warm], (pole.T, offset.T), fit))
        if start + block >= steps:
            del fit  # solved: freed before the slices' vectors are formed
        for k, is_anchor in zip(below - have, at_anchor):
            yield tuple(x[k] for x in solved) if is_anchor else next(warmed)


def _stencil_starts(nodes, columns, near, solved, pole, offset):
    """Writes each warm slice's start into pole and offset, shape (K, warm
    slices), from solved, the anchors' (pole, offset, zhat) rows.  A root
    whose pole is the same in all of its slice's stencil rows, columns,
    starts at the Lagrange polynomial through their offsets in the slice
    index, taken at the slice; nodes holds their anchors' slice indices less
    the slice's.  Any other root starts at its value in row near."""
    # lagrange[:, i] is the product over j != i of nodes_j / (nodes_j - nodes_i),
    # taken one factor at a time; a warm slice is no anchor, so no node is 0.
    lagrange = np.ones(nodes.shape)
    for j, node in enumerate(nodes.T):
        gaps = node[:, None] - nodes
        gaps[:, j] = node
        lagrange *= node[:, None] / gaps
    poles, offsets = (np.ascontiguousarray(x.T) for x in solved[:2])
    # Every index is in range.  In mode "clip" take writes into out directly;
    # in the default mode it writes through a buffer of out's size.
    np.take(poles, near, axis=1, out=pole, mode="clip")
    split, column, term = np.zeros(pole.shape, bool), np.empty_like(pole), np.empty_like(offset)
    offset.fill(0.0)
    for at, weight in zip(columns.T, lagrange.T):
        np.take(poles, at, axis=1, out=column, mode="clip")
        split |= column != pole
        np.take(offsets, at, axis=1, out=term, mode="clip")
        term *= weight
        offset += term
    np.take(offsets, near, axis=1, out=term, mode="clip")
    np.copyto(offset, term, where=split)


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


def _direct_sums(levels, z, right, pole, offset):
    """The secular sum at the roots levels[pole] + offset over all K poles,
    its slopes split before the right pole, the distances to the poles
    left and right of the bracket, and the unit the slopes are scaled by:
    (f, slope_left, slope_right, d_left, d_right, unit)."""
    dist = _level_gaps(levels, pole, offset)
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
    if fit is not None:
        window = _windows(levels, z, fit, k)
    for it in range(RANK_ONE_MAX_STEPS):
        if active.size == 0:
            break
        at, lft = offset[active], left[active]
        if fit is None:
            sums = _direct_sums(levels, z, right[active], pole[active], at)
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

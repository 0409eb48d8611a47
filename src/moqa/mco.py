"""Multiobjective combinatorial optimization over an n-bit domain.

The domain is the index set {0, ..., 2^n - 1} and an instance tabulates
d >= 2 nonnegative objective values for every index.  This module holds
the instance container, Pareto and trivial solution sets, convex
scalarization, the equivalence test, and the supported/nonsupported
classification of the Pareto front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul as _mul

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    InstanceFormatError,
    InvalidLinearizationError,
    is_integer,
)

WEIGHT_SUM_TOL = 1e-12
#: Relative tolerance used when testing whether an objective vector lies on
#: a hull edge during the supported-solution classification.
HULL_COLLINEAR_TOL = 1e-12
# A substituted cut whose coefficients all fall below this share of its
# largest input coefficient is parallel to the hyperplane up to rounding.
_PARALLEL_TOL = 2.0**-40
# The d >= 3 front takes _FRONT_BLOCK sorted live rows as each head and
# compares its front rows with the later live rows _FRONT_SLICE at a time:
# each comparison temporary holds at most _FRONT_BLOCK x _FRONT_SLICE bools.
_FRONT_BLOCK = 32
_FRONT_SLICE = 2048


@dataclass(frozen=True, eq=False)
class McoInstance:
    """A complete objective table over the n-bit domain.

    Attributes:
        values: Array of shape (2^n, d) with finite, nonnegative entries.
            Row x holds the d objective values of domain index x.
        lam: Optional per-objective separation vector (finite, positive,
            length d) used by collision checks, gap diagnostics and the
            resolver's safe radius.  It is validated here only; callers
            that want another vector use with_lambda.
        label_offset: Offset added to a domain index to form its user-facing
            label.  Zero for instances whose published numbering starts at 0;
            1 for tables whose published numbering starts at 1.
    """

    values: np.ndarray
    lam: np.ndarray | None = None
    label_offset: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise InstanceFormatError("objective table must be two-dimensional")
        size, d = vals.shape
        if d < 2:
            raise InstanceFormatError(f"need at least 2 objectives, got {d}")
        n = int(size).bit_length() - 1
        if size < 2 or 2 ** n != size:
            raise InstanceFormatError(
                f"row count {size} is not a power of two >= 2; "
                "the table must enumerate the full domain"
            )
        if not np.all(np.isfinite(vals)):
            raise InstanceFormatError("objective values must be finite")
        if np.any(vals < 0):
            raise InstanceFormatError("objective values must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not is_integer(self.label_offset):
            raise InstanceFormatError(
                f"label_offset must be an integer, got {self.label_offset!r}"
            )
        object.__setattr__(self, "label_offset", int(self.label_offset))
        if self.lam is not None:
            lam = np.asarray(self.lam, dtype=np.float64)
            if lam.shape != (d,):
                raise DimensionMismatchError(
                    f"separation vector has length {lam.size}, expected {d}"
                )
            if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
                raise InstanceFormatError("separation entries must be positive")
            lam.setflags(write=False)
            object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        """Number of bits; the domain is {0, ..., 2^n - 1}."""
        return int(self.values.shape[0]).bit_length() - 1

    @property
    def d(self) -> int:
        """Number of objectives."""
        return int(self.values.shape[1])

    @property
    def size(self) -> int:
        """Domain cardinality 2^n."""
        return int(self.values.shape[0])

    def label(self, x: int) -> int:
        """User-facing label of domain index x."""
        return x + self.label_offset

    def with_lambda(self, lam) -> "McoInstance":
        """Return a copy carrying the given separation vector."""
        return McoInstance(self.values, lam, self.label_offset)


@dataclass(frozen=True, eq=False)
class Linearization:
    """Convex weighting of objectives: entries in [0, 1), summing to 1.

    The upper bound is strict, so no single objective may absorb all the
    weight.  For d = 2 this forces both entries into (0, 1).
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 2:
            raise InvalidLinearizationError("weights must be a vector of length >= 2")
        if not np.all(np.isfinite(w)):
            raise InvalidLinearizationError("weights must be finite")
        if np.any(w < 0) or np.any(w >= 1):
            raise InvalidLinearizationError(
                f"each weight must lie in [0, 1); got {w.tolist()}"
            )
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidLinearizationError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL}; got sum {w.sum()!r}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return int(self.weights.size)

    @classmethod
    def pair(cls, w1: float) -> "Linearization":
        """Two-objective shorthand: (w1, 1 - w1)."""
        return cls(np.array([w1, 1.0 - w1]))

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.weights)


def pareto_front(inst: McoInstance) -> tuple[int, ...]:
    """Exact Pareto front of an instance.

    A domain index x belongs to the front when no row is componentwise <=
    its row with at least one strict improvement.  Rows that are exactly
    equal do not exclude each other, so duplicated minimal rows all appear.

    With two objectives this is the sort-and-sweep maxima algorithm of Kung,
    Luccio and Preparata (1975), O(N log N) for N = 2^n rows: after sorting
    by (f1, f2), a row is on the front when its f2 is the smallest in its
    equal-f1 group and strictly below every f2 of a smaller f1.

    With three or more objectives the rows are sorted by their sum, ties
    broken lexicographically on (f1, ..., fd).  Floating-point addition
    rounds monotonically, so a dominating row never has a larger sum, and
    on an equal sum it is lexicographically smaller: every dominator sorts
    strictly first.  The sorted rows, held as d columns, are then filtered
    by presorted bulk elimination (Chomicki, Godfrey, Gryz & Liang 2003):
    the undominated rows of the next head of live rows are front rows, and
    every later live row that one of them dominates leaves in one pass.
    Each row is compared only until the first front row that dominates it,
    so the cost is O(N log N + N F d) for a front of F rows at worst, when
    most rows are on the front.

    Returns:
        Sorted tuple of domain indices.
    """
    vals = inst.values
    if inst.d == 2:
        f1, f2 = vals.T
        order = np.lexsort((f2, f1))
        s1, s2 = f1[order], f2[order]
        new_f1 = np.r_[True, s1[1:] != s1[:-1]]
        group = np.cumsum(new_f1) - 1
        group_min = s2[new_f1]
        before = np.r_[np.inf, np.minimum.accumulate(group_min)[:-1]]
        keep = (group_min < before)[group] & (s2 == group_min[group])
        return tuple(np.sort(order[keep]).tolist())

    with np.errstate(over="ignore"):  # an overflowed sum still orders correctly
        pos = np.lexsort((*vals.T[::-1], vals.sum(axis=1)))
    cols = vals.T.take(pos, axis=1)
    front = []
    while pos.size:
        # A row that an earlier front row dominates has left, and dominance
        # is transitive, so the head's undominated rows are front rows.
        head = cols[:, :_FRONT_BLOCK]
        top = ~_dominated(head, head)
        front.append(pos[:_FRONT_BLOCK][top])
        live = ~_dominated(head[:, top], cols[:, _FRONT_BLOCK:])
        pos, cols = pos[_FRONT_BLOCK:][live], cols[:, _FRONT_BLOCK:][:, live]
    return tuple(np.sort(np.concatenate(front)).tolist())


def _dominated(by, cols):
    """Mask of the columns of cols that some column of by dominates; both
    hold one objective per row."""
    out = np.empty(cols.shape[1], dtype=bool)
    for lo in range(0, out.size, _FRONT_SLICE):
        part = cols[:, lo:lo + _FRONT_SLICE]
        le, eq = by[0, :, None] <= part[0], by[0, :, None] == part[0]
        for b, c in zip(by[1:, :, None], part[1:]):
            le &= b <= c
            eq &= b == c
        out[lo:lo + _FRONT_SLICE] = (le & ~eq).any(axis=0)
    return out


def trivial_solutions(inst: McoInstance) -> tuple[int, ...]:
    """Indices minimizing at least one single objective.

    Returns:
        Sorted tuple of the union of per-objective argmin sets (all ties
        included).
    """
    out: set[int] = set()
    for i in range(inst.d):
        col = inst.values[:, i]
        out.update(int(x) for x in np.nonzero(col == col.min())[0])
    return tuple(sorted(out))


def scalarize(inst: McoInstance, w: Linearization) -> np.ndarray:
    """Weighted-sum values <f(x), w> for every domain index x.

    Args:
        inst: Objective table.
        w: Convex weighting with w.d == inst.d.

    Returns:
        Vector of length 2^n, nonnegative.
    """
    if w.d != inst.d:
        raise InvalidLinearizationError(
            f"weighting has {w.d} entries but the instance has {inst.d} objectives"
        )
    return inst.values @ w.weights


def equivalent(inst: McoInstance, x: int, y: int) -> bool:
    """True when rows x and y are exactly equal in every objective."""
    return bool(np.array_equal(inst.values[x], inst.values[y]))


def _max_margin_weighting(rows: np.ndarray) -> Linearization | None:
    # Maximize t subject to sum w = 1, 0 <= w_i, w_i + t <= 1 and
    # rows @ w <= 0.  t > 0 certifies an admissible weighting (every entry
    # strictly below 1) that meets the rows.  With v = w / max_i w_i this is
    # the LP: maximize sum v subject to 0 <= v <= 1 and rows @ v <= 0, whose
    # optimum S gives t = 1 - 1/S; only v = 0 is feasible when no weighting
    # meets the rows.  The rows are homogeneous, so each is scaled exactly by
    # a power of two to a largest entry in [0.5, 1): the LP sees the same
    # bits at every scale of the table.
    a = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1))[1][:, None])
    d = a.shape[1]
    # Seidel's incremental step, taking next the row the optimum v so far
    # violates most.  v stays optimal for the rows taken, so once no row is
    # violated it is optimal for all; a taken row that still reads violated
    # only by rounding ends the loop.
    v = np.ones(d)
    taken: list[int] = []
    cuts: list[tuple[list[float], float]] = []
    while True:
        excess = a @ v
        j = int(excess.argmax())
        if excess[j] <= 0.0 or j in taken:
            break
        g = a[j].tolist()
        v = np.array(_on_plane(g, 0.0, cuts, [1.0] * d))
        taken.append(j)
        cuts.append((g, 0.0))
    total = float(v.sum())
    if total <= 0.0:
        return None
    w = np.clip(v / total, 0.0, None)
    if 1.0 - float(w.max()) <= 1e-12:
        return None
    try:
        return Linearization(w / w.sum())
    except InvalidLinearizationError:
        return None


def _seidel(cuts: list, c: list[float]) -> list[float]:
    # Maximize c . u over the unit box and the cuts g . u <= h, one cut at a
    # time (Seidel 1991): the optimum so far either meets the next cut or
    # the new optimum lies on the cut's hyperplane.  Every LP solved here is
    # feasible: v = 0 meets every row of the top one, and each hyperplane
    # meets the region of the cuts before it.
    u = [1.0 if cj > 0.0 else 0.0 for cj in c]
    for i, (g, h) in enumerate(cuts):
        if sum(map(_mul, g, u)) > h:
            u = _on_plane(g, h, cuts[:i], c)
    return u


def _on_plane(g: list[float], h: float, cuts: list, c: list[float]) -> list[float]:
    # Maximize c . u over g . u = h, the unit box and the cuts, by solving
    # g . u = h for its largest coefficient's variable u_k and substituting.
    if len(g) == 1:
        return [h / g[0]]
    k = max(range(len(g)), key=lambda j: abs(g[j]))
    bounds = [([float(j == k) for j in range(len(g))], 1.0),
              ([-float(j == k) for j in range(len(g))], 0.0)]
    sub = []
    for gc, hc in bounds + cuts:
        r = gc[k] / g[k]
        row = [x - r * y for j, (x, y) in enumerate(zip(gc, g)) if j != k]
        # A cut parallel to the hyperplane holds on all of it, the region
        # being feasible; its row is rounding noise, and is dropped.
        if max(map(abs, row)) > _PARALLEL_TOL * max(map(abs, gc)):
            sub.append((row, hc - r * h))
    r = c[k] / g[k]
    u = _seidel(sub, [x - r * y for j, (x, y) in enumerate(zip(c, g)) if j != k])
    rest = h - sum(map(_mul, g[:k] + g[k + 1:], u))
    return u[:k] + [rest / g[k]] + u[k:]


@dataclass(frozen=True)
class SolutionClassification:
    """Partition of the Pareto front produced by supported_solutions.

    Attributes:
        pareto: The full Pareto front.
        trivial: Single-objective minimizers.
        supported: Pareto indices minimizing some admissible weighted sum.
        nonsupported: Pareto indices that are not supported.
        method: "hull" (d = 2) or "lp" (d >= 3, one small LP per front
            row, solved by Seidel's incremental method); both are exact.
    """

    pareto: tuple[int, ...]
    trivial: tuple[int, ...]
    supported: tuple[int, ...]
    nonsupported: tuple[int, ...]
    method: str


def supported_solutions(inst: McoInstance) -> SolutionClassification:
    """Classify the Pareto front into supported and nonsupported indices.

    A Pareto index is supported when some admissible weighting (entries in
    [0, 1), summing to 1) makes its weighted sum minimal over the whole
    domain.  The classification is exact for every d.  With two objectives
    supported points are exactly those whose objective vectors lie on the
    lower-left convex hull chain of the front, including points interior to
    hull edges (method "hull").  With three or more objectives one linear
    program per front point, with one variable per objective, searches for
    such a weighting, which is then checked against the whole table (method
    "lp").  The programs run in this module, by Seidel's (1991) incremental
    method, and their rows are scaled by powers of two, so the
    classification does not change when the table is scaled by one.

    Returns:
        SolutionClassification with all four index sets sorted.
    """
    front = pareto_front(inst)
    if inst.d == 2:
        supported = _supported_by_hull(inst, front)
        method = "hull"
    else:
        supported = _supported_by_lp(inst, front)
        method = "lp"
    kept = set(supported)
    return SolutionClassification(
        pareto=front,
        trivial=trivial_solutions(inst),
        supported=supported,
        nonsupported=tuple(x for x in front if x not in kept),
        method=method,
    )


def _supported_by_lp(inst: McoInstance, front: tuple[int, ...]) -> tuple[int, ...]:
    # Only front rows constrain the weighting: every other row is dominated
    # by a front row, and weights are nonnegative.
    vals = inst.values
    front_vals = vals[list(front)]
    tol = 1e-9 * float(vals.max())
    supported = []
    for x in front:
        w = _max_margin_weighting(vals[x] - front_vals)
        if w is None:
            continue
        sums = scalarize(inst, w)
        if sums[x] <= sums.min() + tol:
            supported.append(x)
    return tuple(supported)


def _supported_by_hull(inst: McoInstance, front: tuple[int, ...]) -> tuple[int, ...]:
    vals = inst.values[list(front)]
    top = vals.max()
    if top > 2.0**500:
        # A cross product reaches 2 * top**2, which overflows once top nears
        # 2**512.  Support does not change with scale, and a power-of-two
        # scale is exact short of underflow, so top moves into
        # [2**499, 2**500); smaller tables keep their bits.
        vals = np.ldexp(vals, 500 - np.frexp(top)[1])
    # The distinct rows sorted by f1, then f2, and their lower-left chain.
    rows = vals[np.lexsort((vals[:, 1], vals[:, 0]))]
    rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    # The chain runs on Python floats: the same IEEE products and
    # differences as _cross, without numpy's per-call overhead.
    chain: list[tuple[float, float]] = []
    for x, y in rows.tolist():
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0.0:
                break
            chain.pop()
        chain.append((x, y))
    hull = np.array(chain)
    # Distinct front rows have strictly increasing f1 and strictly decreasing
    # f2.  So with k the last vertex whose f1 does not exceed a row's, the row
    # either equals vertex k (its cross product is exactly 0) or lies inside
    # the bounding box of edge [k, k+1] and of no other edge.
    k = np.searchsorted(hull[:, 0], vals[:, 0], side="right") - 1
    a = hull[k]
    b = hull[np.minimum(k + 1, len(hull) - 1)]
    span = np.abs(b - a).max(axis=1)
    reach = np.abs(vals - a).max(axis=1)
    on_chain = np.abs(_cross(a, b, vals)) <= HULL_COLLINEAR_TOL * span * reach
    return tuple(np.asarray(front)[on_chain].tolist())


def _cross(o, a, b):
    # z-component of (a - o) x (b - o); rows of 2-vectors broadcast.
    return ((a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1])
            - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0]))


@dataclass(frozen=True)
class ValidationReport:
    """Structural health report for an instance.

    Attributes:
        well_formed: Every objective attains the exact value 0 at exactly
            one domain index.
        zero_indices: Per-objective tuples of the indices attaining 0.
        normal: Well-formed and the per-objective zeros sit at pairwise
            distinct indices.
        shared_optima: Triples (i, j, x) of objective pairs whose zeros
            collide at index x.
        collision_free: Per-objective value separations all exceed the
            instance separation vector; None when no separation vector was
            available to check against.
        collision_witness: First violating triple (objective, x, y) when
            collision_free is False.
        collision_scope: "adjacent" (consecutive domain indices compared)
            or "all" (every pair compared via sorted values).
        messages: Human-readable findings, empty when everything passed.
    """

    well_formed: bool
    zero_indices: tuple[tuple[int, ...], ...]
    normal: bool
    shared_optima: tuple[tuple[int, int, int], ...]
    collision_free: bool | None
    collision_witness: tuple[int, int, int] | None
    collision_scope: str
    messages: tuple[str, ...] = field(default_factory=tuple)

    @property
    def all_pass(self) -> bool:
        return self.well_formed and self.normal and self.collision_free is not False


def validate(inst: McoInstance, collision_scope: str = "adjacent") -> ValidationReport:
    """Check an instance for unique optima, distinct optima, and separation.

    Args:
        inst: Objective table; its separation vector inst.lam bounds the
            collision check.  Check another vector with
            validate(inst.with_lambda(v)).
        collision_scope: "adjacent" compares each objective across
            consecutive domain indices only, which is the separation notion
            the bundled benchmark family satisfies.  "all" compares every
            pair of indices (equivalently, consecutive sorted values), a
            strictly stronger requirement.

    Returns:
        ValidationReport.  When the instance carries no separation vector
        the collision check is reported as None ("not evaluated").
    """
    if collision_scope not in ("adjacent", "all"):
        raise ConfigurationError(
            f"collision_scope must be 'adjacent' or 'all', got {collision_scope!r}"
        )
    vals = inst.values
    messages: list[str] = []

    zero_indices = tuple(
        tuple(int(x) for x in np.nonzero(vals[:, i] == 0.0)[0])
        for i in range(inst.d)
    )
    well_formed = all(len(z) == 1 for z in zero_indices)
    for i, z in enumerate(zero_indices):
        if len(z) != 1:
            messages.append(
                f"objective {i} attains zero at {len(z)} indices {list(z)}; need exactly one"
            )

    shared: list[tuple[int, int, int]] = []
    if well_formed:
        for i in range(inst.d):
            for j in range(i + 1, inst.d):
                if zero_indices[i][0] == zero_indices[j][0]:
                    shared.append((i, j, zero_indices[i][0]))
                    messages.append(
                        f"objectives {i} and {j} share their optimum at index {zero_indices[i][0]}"
                    )
    normal = well_formed and not shared

    collision_free: bool | None
    witness: tuple[int, int, int] | None = None
    if inst.lam is None:
        collision_free = None
        messages.append("collision check not evaluated: no separation vector given")
    else:
        collision_free = True
        # "adjacent" compares consecutive indices, "all" consecutive sorted
        # values; either way the first gap <= lam_i is the witness.
        for i in range(inst.d):
            col = vals[:, i]
            if collision_scope == "adjacent":
                order = np.arange(inst.size)
            else:
                order = np.argsort(col, kind="stable")
            bad = np.nonzero(np.abs(np.diff(col[order])) <= inst.lam[i])[0]
            if bad.size:
                a, b = int(order[bad[0]]), int(order[bad[0] + 1])
                witness = (i, min(a, b), max(a, b))
                collision_free = False
                messages.append(
                    f"objective {i}: |f({witness[1]}) - f({witness[2]})| = "
                    f"{float(abs(col[witness[1]] - col[witness[2]]))!r} does not "
                    f"exceed {float(inst.lam[i])!r}"
                )
                break

    return ValidationReport(
        well_formed=well_formed,
        zero_indices=zero_indices,
        normal=normal,
        shared_optima=tuple(shared),
        collision_free=collision_free,
        collision_witness=witness,
        collision_scope=collision_scope,
        messages=tuple(messages),
    )

"""Core model tests: fronts, linearizations, validation, I/O.

Every structural claim is checked against a small independent oracle
written with plain loops (or an LP), never against the library's own
vectorized code paths.
"""

import csv
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from moqa import (
    DimensionMismatchError,
    InstanceFormatError,
    InvalidLinearizationError,
    Linearization,
    McoInstance,
    equivalent,
    pareto_front,
    read_instance,
    scalarize,
    supported_solutions,
    trivial_solutions,
    validate,
    write_instance,
)

from conftest import make_instance, oracle_front, random_instance


# ---------------------------------------------------------------------------
# independent oracles


def oracle_supported(values, front, x, margin=1e-9):
    """LP feasibility: is x a weighted-sum minimizer for an admissible weighting?

    Maximizes t subject to sum(w)=1, w_i >= 0, w_i <= 1 - t, and
    <f(x)-f(y), w> <= 0 for every other front member y.  x is supported
    exactly when the optimum t is positive, i.e. when some weighting with
    every entry in [0, 1) makes x minimal.
    """
    d = len(values[0])
    others = [y for y in front if y != x]
    # variables: w_0..w_{d-1}, t
    c = [0.0] * d + [-1.0]
    a_ub, b_ub = [], []
    for y in others:
        delta = [values[x][i] - values[y][i] for i in range(d)]
        a_ub.append(delta + [0.0])
        b_ub.append(0.0)
    for i in range(d):
        row = [0.0] * (d + 1)
        row[i], row[d] = 1.0, 1.0  # w_i + t <= 1
        a_ub.append(row)
        b_ub.append(1.0)
    a_eq = [[1.0] * d + [0.0]]
    res = linprog(
        c,
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        A_eq=np.array(a_eq),
        b_eq=[1.0],
        bounds=[(0.0, 1.0)] * d + [(None, None)],
        method="highs",
    )
    return res.status == 0 and -res.fun > margin


def _exact_max_sum(rows) -> Fraction:
    """Maximum of sum(v) over 0 <= v <= 1 and rows @ v <= 0, in Fractions.

    Primal simplex on the tableau with one slack per row, started at
    v = 0, with Bland's rule for both the entering column and the leaving
    row, so degenerate pivots cannot cycle.
    """
    d, m = len(rows[0]), len(rows) + len(rows[0])
    lhs = [list(r) for r in rows] + [[Fraction(i == j) for j in range(d)] for i in range(d)]
    rhs = [Fraction(0)] * len(rows) + [Fraction(1)] * d
    tab = [lhs[i] + [Fraction(i == j) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = list(range(d, d + m))
    cost = [Fraction(-1)] * d + [Fraction(0)] * (m + 1)
    while True:
        enter = next((j for j in range(d + m) if cost[j] < 0), None)
        if enter is None:
            return cost[-1]
        _, _, i = min((tab[k][-1] / tab[k][enter], basis[k], k)
                      for k in range(m) if tab[k][enter] > 0)
        tab[i] = [a / tab[i][enter] for a in tab[i]]
        for k in range(m):
            if k != i and tab[k][enter]:
                tab[k] = [a - tab[k][enter] * b for a, b in zip(tab[k], tab[i])]
        cost = [a - cost[enter] * b for a, b in zip(cost, tab[i])]
        basis[i] = enter


def oracle_supported_exact(values, front, x) -> bool:
    """oracle_supported's LP solved exactly, at supported_solutions' margin.

    With v = w / max(w), maximizing t is maximizing sum(v) subject to
    0 <= v <= 1 and <f(x)-f(y), v> <= 0, and the optimum S gives
    t = 1 - 1/S; only v = 0 is feasible when no weighting makes x minimal.
    """
    rows = [[Fraction(a) - Fraction(b) for a, b in zip(values[x], values[y])]
            for y in front]
    best = _exact_max_sum(rows)
    return best > 0 and 1 - 1 / best > Fraction(1, 10**12)


def _scan_cross(o, a, b) -> float:
    return float((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))


def _scan_on_chain(v, chain) -> bool:
    for q in chain:
        if v[0] == q[0] and v[1] == q[1]:
            return True
    for a, b in zip(chain, chain[1:]):
        lo0, hi0 = min(a[0], b[0]), max(a[0], b[0])
        lo1, hi1 = min(a[1], b[1]), max(a[1], b[1])
        if not (lo0 <= v[0] <= hi0 and lo1 <= v[1] <= hi1):
            continue
        span = max(abs(b[0] - a[0]), abs(b[1] - a[1]))
        reach = max(abs(v[0] - a[0]), abs(v[1] - a[1]))
        if abs(_scan_cross(a, b, v)) <= 1e-12 * span * reach:
            return True
    return False


def oracle_hull_supported(values, front) -> tuple[int, ...]:
    """d = 2 supported indices by scanning every hull vertex and edge.

    Builds the lower-left chain with Andrew's monotone chain, then tests
    each front point against every vertex and against every edge whose
    bounding box holds it, with the relative collinearity rule
    |cross| <= 1e-12 * span * reach.
    """
    pts = np.unique(values[list(front)], axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    chain = []
    for p in pts:
        while len(chain) >= 2 and _scan_cross(chain[-2], chain[-1], p) <= 0.0:
            chain.pop()
        chain.append(p)
    return tuple(x for x in front if _scan_on_chain(values[x], chain))


# ---------------------------------------------------------------------------
# instance container


def test_instance_requires_power_of_two_rows():
    with pytest.raises(InstanceFormatError):
        make_instance([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])


def test_instance_requires_two_objectives():
    with pytest.raises(InstanceFormatError):
        make_instance([[1.0], [2.0]])


def test_instance_rejects_negative_and_nonfinite():
    with pytest.raises(InstanceFormatError):
        make_instance([[1.0, -2.0], [2.0, 1.0]])
    with pytest.raises(InstanceFormatError):
        make_instance([[1.0, np.nan], [2.0, 1.0]])


def test_instance_shape_and_labels():
    inst = make_instance([[0.0, 3.0], [1.0, 1.0], [3.0, 0.0], [4.0, 4.0]], label_offset=1)
    assert (inst.n, inst.d, inst.size) == (2, 2, 4)
    assert inst.label(0) == 1


@pytest.mark.parametrize("offset", [1.5, True, "a"], ids=["fractional", "bool", "string"])
def test_instance_rejects_non_integer_label_offset(offset):
    with pytest.raises(InstanceFormatError, match="label_offset must be an integer"):
        make_instance([[0.0, 1.0], [1.0, 0.0]], label_offset=offset)


def test_instance_stores_numpy_label_offset_as_int():
    inst = make_instance([[0.0, 1.0], [1.0, 0.0]], label_offset=np.int64(1))
    assert type(inst.label_offset) is int
    assert inst.label(0) == 1


def test_instance_values_read_only():
    inst = make_instance([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        inst.values[0, 0] = 5.0


def test_with_lambda_overrides_separations():
    inst = make_instance([[0.0, 1.0], [1.0, 0.0]], lam=[0.1, 0.1])
    swapped = inst.with_lambda([0.3, 0.5])
    assert tuple(swapped.lam) == (0.3, 0.5)
    assert tuple(inst.lam) == (0.1, 0.1)


@pytest.mark.parametrize("lam, error", [
    ([0.0, 0.1], InstanceFormatError),
    ([-1.0, 0.1], InstanceFormatError),
    ([np.nan, 0.1], InstanceFormatError),
    ([0.1, np.inf], InstanceFormatError),
    ([0.1, 0.1, 0.1], DimensionMismatchError),
], ids=["zero", "negative", "nan", "inf", "length"])
@pytest.mark.parametrize("route", ["constructor", "with_lambda"])
def test_bad_separation_vector_rejected(route, lam, error):
    # McoInstance is the one place a separation vector is checked; every
    # consumer (validate, end_gap_diagnostics, l1_radius, resolve) reads it.
    values = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(error):
        if route == "constructor":
            make_instance(values, lam=lam)
        else:
            make_instance(values, lam=[0.1, 0.1]).with_lambda(lam)


# ---------------------------------------------------------------------------
# Pareto front and trivial solutions


def test_front_hand_case():
    inst = make_instance([[0.0, 3.0], [1.0, 1.0], [3.0, 0.0], [2.0, 2.0]])
    assert set(pareto_front(inst)) == {0, 1, 2}


def test_front_keeps_equal_rows():
    inst = make_instance([[1.0, 1.0], [1.0, 1.0], [0.5, 2.0], [2.0, 0.5]])
    assert set(pareto_front(inst)) == {0, 1, 2, 3}


def test_front_matches_bruteforce_on_random_instances(rng):
    for _ in range(40):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(2, 5))
        inst = random_instance(rng, n, d)
        assert set(pareto_front(inst)) == oracle_front(inst.values.tolist())


def _tie_tables(rng, n, d):
    """Seeded tables with 2^n rows and d objectives, full of exact ties."""
    size = 1 << n
    # small integers: many equal f1 values, equal sums and duplicated rows
    small = rng.integers(0, 3, size=(size, d)).astype(float)
    # one minimal-sum row repeated on several rows
    repeated = rng.integers(0, 5, size=(size, d)).astype(float)
    best = repeated[np.argmin(repeated.sum(axis=1))].copy()
    repeated[rng.random(size) < 0.25] = best
    # a duplicated row copied onto row 0
    copied = rng.integers(0, 4, size=(size, d)).astype(float)
    copied[0] = copied[rng.integers(size)]
    # the same patterns at large magnitudes
    scaled = rng.integers(0, 4, size=(size, d)) * 10.0 ** rng.integers(0, 301)
    huge = rng.uniform(0.0, 1e300, size=(size, d))
    huge[0] = huge[rng.integers(size)]
    return [small, repeated, copied, scaled, huge]


@pytest.mark.parametrize("n", range(1, 8))
def test_front_matches_bruteforce_on_tie_heavy_tables(n):
    rng = np.random.default_rng(2000 + n)
    for d in (2, 3, 4):
        for _ in range(2):
            for values in _tie_tables(rng, n, d):
                inst = make_instance(values)
                expected = tuple(sorted(oracle_front(inst.values.tolist())))
                assert pareto_front(inst) == expected, values


def _plane_table(rng, n, d):
    """2^n integer rows with one sum: every row is on the front."""
    low = rng.integers(0, 1000, size=(1 << n, d - 1))
    return np.c_[low, 1000 * (d - 1) - low.sum(axis=1)].astype(float)


def _boundary_table(rng, n, d):
    """2^n rows: 40 of one sum, among them equal rows at sorted positions 31
    and 32, either side of the first head's end, and the rest dominated by
    all 40.  Also returns the indices of the two equal rows."""
    values = _plane_table(rng, n, d)
    order = np.lexsort(values[:40].T[::-1])
    values[order[32]] = values[order[31]]
    values[40:] = rng.integers(1000 * (d - 1), 2000 * d, size=(values.shape[0] - 40, d))
    shuffle = rng.permutation(values.shape[0])
    return values[shuffle], np.argsort(shuffle)[order[31:33]]


# The d >= 3 front takes the sorted rows a head of _FRONT_BLOCK = 32 at a
# time, so these tables span many heads.
@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("n", range(6, 11))
def test_front_matches_bruteforce_beyond_one_head(n, d):
    rng = np.random.default_rng(3000 + 10 * n + d)
    boundary, copies = _boundary_table(rng, n, d)
    for values in [*_tie_tables(rng, n, d), _plane_table(rng, n, d), boundary]:
        inst = make_instance(values)
        expected = tuple(sorted(oracle_front(inst.values.tolist())))
        assert pareto_front(inst) == expected, values
    # Equal rows do not exclude each other, across a head boundary too.
    assert set(copies.tolist()) <= set(pareto_front(make_instance(boundary)))


def test_front_float_sum_tie():
    # Rows 0, 1 and 2 all sum to exactly 1e20 in floating point and row 1
    # dominates row 0: filtering only against strictly smaller sums, or
    # ordering by sum alone and comparing with earlier rows only, keeps row 0.
    inst = make_instance([[1e20, 1, 0], [1e20, 0, 0], [0, 0, 1e20], [5, 5, 5e20]])
    assert pareto_front(inst) == (1, 2)


def test_front_sorted_tuple(rng):
    inst = random_instance(rng, 4, 2)
    front = pareto_front(inst)
    assert isinstance(front, tuple)
    assert list(front) == sorted(front)


def test_trivial_solutions_are_per_objective_argmins():
    inst = make_instance([[0.0, 3.0], [1.0, 1.0], [3.0, 0.0], [2.0, 2.0]])
    assert trivial_solutions(inst) == (0, 2)


def test_trivial_solutions_subset_of_front(rng):
    for _ in range(20):
        inst = random_instance(rng, int(rng.integers(1, 5)), int(rng.integers(2, 4)))
        front = set(pareto_front(inst))
        for x in trivial_solutions(inst):
            assert x in front


# ---------------------------------------------------------------------------
# linearizations and scalarization


def test_linearization_accepts_interior_weights():
    w = Linearization((0.3, 0.7))
    assert w.as_tuple() == (0.3, 0.7)
    assert w.d == 2


def test_linearization_pair_shorthand():
    w = Linearization.pair(0.57)
    assert w.as_tuple() == (0.57, 1.0 - 0.57)


def test_linearization_rejects_bad_weights():
    with pytest.raises(InvalidLinearizationError):
        Linearization((0.5, 0.6))
    with pytest.raises(InvalidLinearizationError):
        Linearization((1.0, 0.0))  # upper bound is strict
    with pytest.raises(InvalidLinearizationError):
        Linearization((-0.1, 1.1))
    with pytest.raises(InvalidLinearizationError):
        Linearization.pair(0.0)
    with pytest.raises(InvalidLinearizationError):
        Linearization.pair(1.0)


def test_scalarize_hand_value():
    inst = make_instance([[0.0, 3.0], [1.0, 1.0], [3.0, 0.0], [2.0, 2.0]])
    w = Linearization((0.25, 0.75))
    expected = [0.25 * a + 0.75 * b for a, b in inst.values]
    assert np.allclose(scalarize(inst, w), expected, rtol=0, atol=1e-15)


def test_scalarize_dimension_mismatch():
    inst = make_instance([[0.0, 3.0, 1.0], [1.0, 1.0, 2.0]])
    with pytest.raises(InvalidLinearizationError):
        scalarize(inst, Linearization.pair(0.5))


@settings(max_examples=50)
@given(w1=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_scalarization_argmin_is_pareto_optimal(w1):
    rng = np.random.default_rng(int(w1 * 1e9))
    inst = random_instance(rng, 4, 2)
    scal = scalarize(inst, Linearization.pair(w1))
    winner = int(np.argmin(scal))
    assert winner in oracle_front(inst.values.tolist())


# ---------------------------------------------------------------------------
# equivalence


def test_equivalent_requires_exact_equality():
    inst = make_instance([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0 + 1e-12], [5.0, 5.0]])
    assert equivalent(inst, 0, 1)
    assert not equivalent(inst, 0, 2)


# ---------------------------------------------------------------------------
# supported / nonsupported classification


def test_supported_hand_case_edge_interior_point():
    # three collinear front points: the middle one sits inside a hull edge
    inst = make_instance([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0], [1.5, 1.5]])
    sc = supported_solutions(inst)
    assert sc.method == "hull"
    assert set(sc.pareto) == {0, 1, 2}
    assert set(sc.supported) == {0, 1, 2}
    assert sc.nonsupported == ()


def test_supported_hand_case_knee_above_hull():
    inst = make_instance([[0.0, 2.0], [1.5, 1.5], [2.0, 0.0], [3.0, 3.0]])
    sc = supported_solutions(inst)
    assert set(sc.supported) == {0, 2}
    assert set(sc.nonsupported) == {1}


def test_supported_partition_and_trivials(rng):
    for _ in range(10):
        inst = random_instance(rng, 4, 2)
        sc = supported_solutions(inst)
        assert set(sc.supported) | set(sc.nonsupported) == set(sc.pareto)
        assert set(sc.supported) & set(sc.nonsupported) == set()
        for x in trivial_solutions(inst):
            assert x in sc.supported


def test_supported_matches_lp_oracle_two_objectives(rng):
    for _ in range(15):
        inst = random_instance(rng, 4, 2)
        sc = supported_solutions(inst)
        front = list(sc.pareto)
        values = inst.values.tolist()
        for x in front:
            expected = oracle_supported(values, front, x)
            assert (x in sc.supported) == expected, (x, sorted(front))


def _hull_tables(rng, n):
    """Seeded d = 2 tables with 2^n rows that stress the hull membership."""
    size = 1 << n
    # integer points on a convex staircase made of two collinear runs, with
    # duplicates, and some rows lifted off it
    f1 = rng.integers(0, 6, size=size)
    lift = rng.integers(0, 3, size=size) * (rng.random(size) < 0.3)
    grid = np.c_[f1, np.array([9, 6, 3, 2, 1, 0])[f1] + lift].astype(float)
    # integer points on f1 + f2 = 6, with duplicates, plus rows above it
    f1 = rng.integers(0, 7, size=size).astype(float)
    line = np.c_[f1, 6.0 - f1] + rng.integers(0, 2, size=(size, 1))
    # points on a line, each coordinate moved by about 1e-13 relative
    t = rng.uniform(0.0, 1.0, size=size)
    jitter = 1.0 + 1e-13 * rng.standard_normal((size, 2))
    perturbed = np.c_[3.0 * t, 3.0 - 3.0 * t] * jitter
    large = rng.uniform(0.0, 1e6, size=(size, 2))
    large_grid = 1e5 * grid
    # a single distinct front row: one shared row, or one row below all
    shared = np.tile(rng.uniform(0.0, 10.0, size=2), (size, 1))
    below = rng.uniform(1.0, 10.0, size=(size, 2))
    below[rng.integers(size)] = 0.0
    return [grid, line, perturbed, large, large_grid, shared, below]


@pytest.mark.parametrize("n", range(1, 8))
def test_supported_hull_matches_per_edge_scan(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(12):
        for values in _hull_tables(rng, n):
            inst = make_instance(values)
            sc = supported_solutions(inst)
            assert sc.method == "hull"
            assert sc.supported == oracle_hull_supported(inst.values, sc.pareto)


def _unique_chain_supported(values, front):
    """The d = 2 classification as np.unique's sorted rows, a monotone
    chain over numpy rows and the vectorized on-chain test."""
    def cross(o, a, b):
        return ((a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1])
                - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0]))

    vals = values[list(front)]
    chain = []
    for p in np.unique(vals, axis=0):
        while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0.0:
            chain.pop()
        chain.append(p)
    hull = np.array(chain)
    k = np.searchsorted(hull[:, 0], vals[:, 0], side="right") - 1
    a, b = hull[k], hull[np.minimum(k + 1, len(hull) - 1)]
    span = np.abs(b - a).max(axis=1)
    reach = np.abs(vals - a).max(axis=1)
    on_chain = np.abs(cross(a, b, vals)) <= 1e-12 * span * reach
    return tuple(np.asarray(front)[on_chain].tolist())


@pytest.mark.parametrize("n", range(1, 8))
def test_supported_hull_matches_unique_chain(n):
    # Duplicate rows, signed zeros and scales from 1e-300 to 1e150, all
    # below the 2**500 at which the hull rescales.
    rng = np.random.default_rng(2000 + n)
    size = 1 << n
    for _ in range(40):
        values = [*_hull_tables(rng, n), rng.integers(0, 4, (size, 2)).astype(float)]
        zeros = np.stack([rng.permutation(size), rng.permutation(size)], axis=1).astype(float)
        zeros[rng.random(size) < 0.3] = -0.0
        values.append(zeros)
        values += [table * scale for table in values[:3] for scale in (1e-300, 1e150)]
        for table in values:
            inst = make_instance(table)
            sc = supported_solutions(inst)
            assert sc.supported == _unique_chain_supported(inst.values, sc.pareto)


def test_supported_hull_is_scale_invariant():
    # A power-of-two scale multiplies each cross product and its bound
    # span * reach by the same power of four, short of underflow, so the
    # collinearity test keeps its answer when differences fall below 1.
    rng = np.random.default_rng(700)
    for _ in range(200):
        table = rng.uniform(0.0, 10.0, size=(1 << int(rng.integers(2, 8)), 2))
        base = supported_solutions(make_instance(table)).supported
        for e in (-40, -20, 20, 40):
            scaled = supported_solutions(make_instance(np.ldexp(table, e)))
            assert scaled.supported == base, (e, table)


def test_supported_hull_is_scale_invariant_at_huge_values():
    # Cross products of values near 1e300 overflow without a rescale.
    rng = np.random.default_rng(300)
    for _ in range(500):
        size = 1 << int(rng.integers(1, 7))
        table = np.stack([rng.permutation(size), rng.permutation(size)], axis=1).astype(float)
        with np.errstate(all="raise"):
            huge = supported_solutions(make_instance(table * 1e300))
        assert huge.supported == supported_solutions(make_instance(table)).supported


@pytest.mark.parametrize("d", [3, 4])
def test_supported_matches_lp_oracle_more_objectives(rng, d):
    for _ in range(8):
        inst = random_instance(rng, 4, d)
        sc = supported_solutions(inst)
        assert sc.method == "lp"
        front = list(sc.pareto)
        values = inst.values.tolist()
        expected = {x for x in front if oracle_supported(values, front, x)}
        assert set(sc.supported) == expected, sorted(front)
        assert set(sc.nonsupported) == set(front) - expected


def _lp_fuzz_tables(rng, d, count):
    """Seeded d-objective tables with 4 to 16 rows for the support LPs."""
    for k in range(count):
        size = 1 << int(rng.integers(2, 5))
        kind = k % 5
        if kind == 0:
            values = rng.uniform(0.0, 10.0, size=(size, d))
        elif kind == 1:
            # small integers: exact weighted-sum ties and duplicated rows
            values = rng.integers(0, 3, size=(size, d)).astype(float)
        elif kind == 2:
            # rows on the plane sum(f) = 2d, which every row ties under
            # uniform weights, some lifted off it, and one duplicated
            values = rng.integers(0, 3, size=(size, d)).astype(float)
            values[:, -1] = 2 * d - values[:, :-1].sum(axis=1)
            values[:, -1] += rng.random(size) < 0.3
            values[0] = values[rng.integers(size)]
        elif kind == 3:
            values = np.stack([rng.permutation(size) for _ in range(d)], axis=1).astype(float)
            values[rng.random(size) < 0.3] = values[rng.integers(size)]
        else:
            # columns four orders of magnitude apart
            values = rng.uniform(0.0, 1.0, size=(size, d)) * 10.0 ** rng.integers(-4, 5, size=d)
        yield values


@pytest.mark.parametrize("d, count", [(3, 500), (4, 200)])
def test_supported_lp_matches_oracle_on_fuzz_tables(d, count):
    # linprog's HiGHS has absolute tolerances, so on tables whose columns
    # lie orders of magnitude apart it can report a row supported that no
    # weighting makes minimal; wherever it and supported_solutions
    # disagree, the exact LP decides.
    rng = np.random.default_rng(4000 + d)
    for values in _lp_fuzz_tables(rng, d, count):
        sc = supported_solutions(make_instance(values))
        assert sc.method == "lp"
        front = list(sc.pareto)
        rows = values.tolist()
        for x in front:
            if (x in sc.supported) != oracle_supported(rows, front, x):
                assert (x in sc.supported) == oracle_supported_exact(rows, front, x), values


@pytest.mark.parametrize("d", [3, 4])
def test_supported_lp_is_scale_invariant(d):
    # A power-of-two scale changes no bit of the normalized LP rows, nor
    # the comparison of the whole-table check.
    rng = np.random.default_rng(600 + d)
    for k in range(40):
        size = 1 << int(rng.integers(2, 7))
        if k % 2:
            table = rng.integers(0, 4, size=(size, d)).astype(float)
        else:
            table = rng.uniform(0.0, 10.0, size=(size, d))
        base = supported_solutions(make_instance(table)).supported
        for e in (-300, -100, -30, 50, 300):
            scaled = supported_solutions(make_instance(np.ldexp(table, e)))
            assert scaled.supported == base, (e, table)


def test_supported_hand_case_wide_columns():
    # Row 0 beats row 1 only on f4 and loses to row 2 only on f4.  With
    # p = (f0 - f2)_4 and q = (f1 - f0)_4, both positive, the combination
    # p (f0 - f1) + q (f0 - f2) is zero on f4 and positive on f1..f3, so a
    # weighting under which row 0 ties or beats both rows puts all its
    # weight on f4, where row 2 is smaller: row 0 is nonsupported.  The
    # f2 column lies four orders below the others, and linprog's HiGHS,
    # whose tolerances are absolute, calls row 0 supported.
    values = [[4630.0, 0.000273, 6560.0, 4.47], [2540.0, 0.000236, 3440.0, 4.66],
              [8820.0, 0.000426, 8600.0, 3.63], [5890.0, 0.000625, 8540.0, 4.56]]
    sc = supported_solutions(make_instance(values))
    assert sc.pareto == (0, 1, 2)
    assert sc.supported == (1, 2)
    f = [[Fraction(v) for v in row] for row in values]
    a1 = [u - v for u, v in zip(f[0], f[1])]
    a2 = [u - v for u, v in zip(f[0], f[2])]
    p, q = a2[3], -a1[3]
    assert p > 0 and q > 0
    assert all(p * u + q * v > 0 for u, v in zip(a1[:3], a2[:3]))
    assert [oracle_supported_exact(values, [0, 1, 2], x) for x in range(3)] == [False, True, True]


def test_supported_hand_case_parallel_cut():
    # Row 1 is minimal under w = (0, 1/2, 1/4, 1/4), with margin t = 1/2.
    # On the way its LP substitutes a row that is parallel to the hyperplane
    # it is solved on; what is left of that row is rounding noise, and
    # solving on it instead of dropping it loses row 1.
    values = [[2, 3, 3, 1], [3, 1, 2, 3], [1, 3, 3, 1], [1, 2, 0, 5],
              [1, 3, 2, 2], [3, 2, 0, 3], [1, 0, 3, 4], [3, 2, 3, 0]]
    sc = supported_solutions(make_instance(values))
    assert sc.pareto == (1, 2, 3, 4, 5, 6, 7)
    assert sc.supported == sc.pareto
    assert all(oracle_supported_exact(values, list(sc.pareto), x) for x in sc.pareto)


def test_supported_hand_case_zero_weight_three_objectives():
    # Row 3 ties rows 0 and 1 under (1/2, 1/2, 0) and loses under every
    # weighting that puts weight on the third objective.
    values = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.5, 0.5, 2.0]]
    sc = supported_solutions(make_instance(values))
    assert sc.method == "lp"
    assert sc.pareto == (0, 1, 2, 3)
    assert sc.supported == (0, 1, 2, 3)
    assert sc.nonsupported == ()
    assert oracle_supported(values, [0, 1, 2, 3], 3)


def test_supported_hand_case_only_inadmissible_weighting():
    # Row 0 beats rows 1 and 2 only under (1, 0, 0), where all three tie;
    # a weighting with an entry of 1 is not admissible, so the LP's margin
    # is zero and row 0 is nonsupported.
    values = [[0.0, 2.0, 2.0], [0.0, 0.0, 3.0], [0.0, 3.0, 0.0], [5.0, 5.0, 5.0]]
    sc = supported_solutions(make_instance(values))
    assert sc.method == "lp"
    assert sc.pareto == (0, 1, 2)
    assert sc.supported == (1, 2)
    assert sc.nonsupported == (0,)
    assert [oracle_supported(values, [0, 1, 2], x) for x in range(3)] == [False, True, True]


# ---------------------------------------------------------------------------
# validation


WELL_FORMED = [[0.0, 3.0], [1.0, 1.5], [3.0, 0.0], [4.0, 4.0]]


def test_validate_well_formed_instance():
    report = validate(make_instance(WELL_FORMED, lam=[0.5, 0.5]))
    assert report.well_formed
    assert report.normal
    assert not report.shared_optima
    assert report.zero_indices == ((0,), (2,))
    assert report.collision_free
    assert report.all_pass


def test_validate_missing_zero():
    report = validate(make_instance([[0.5, 3.0], [1.0, 0.0], [3.0, 2.0], [4.0, 4.0]]))
    assert not report.well_formed
    assert not report.all_pass
    assert report.messages


def test_validate_duplicate_zero():
    report = validate(make_instance([[0.0, 3.0], [0.0, 1.5], [3.0, 0.0], [4.0, 4.0]]))
    assert not report.well_formed


def test_validate_shared_optimum_not_normal():
    report = validate(make_instance([[0.0, 0.0], [1.0, 1.5], [3.0, 2.0], [4.0, 4.0]]))
    assert report.well_formed
    assert not report.normal
    assert report.shared_optima


def test_validate_no_lambda_leaves_collision_unknown():
    report = validate(make_instance(WELL_FORMED))
    assert report.collision_free is None
    assert report.all_pass  # unknown does not fail the gate


def test_validate_adjacent_collision_witness():
    inst = make_instance([[0.0, 3.0], [0.3, 1.5], [3.0, 0.0], [4.0, 4.0]], lam=[0.5, 0.5])
    report = validate(inst)
    assert report.collision_free is False
    objective, x, y = report.collision_witness
    assert objective == 0
    assert (x, y) == (0, 1)
    assert not report.all_pass


def test_validate_all_scope_catches_nonadjacent_pairs():
    values = [[0.0, 3.0], [2.0, 1.5], [3.0, 0.0], [2.1, 4.0]]
    inst = make_instance(values, lam=[0.5, 0.5])
    adjacent = validate(inst, collision_scope="adjacent")
    assert adjacent.collision_free  # rows 1 and 3 are not neighbors
    full = validate(inst, collision_scope="all")
    assert full.collision_free is False
    assert full.collision_scope == "all"


def test_validate_lambda_override_argument():
    inst = make_instance(WELL_FORMED)
    report = validate(inst.with_lambda([5.0, 5.0]))
    assert report.collision_free is False


def test_validate_rejects_unknown_scope():
    with pytest.raises(Exception):
        validate(make_instance(WELL_FORMED), collision_scope="diagonal")


# ---------------------------------------------------------------------------
# CSV + sidecar round trips


def test_write_read_round_trip_exact(tmp_path, rng):
    inst = random_instance(rng, 3, 3).with_lambda([0.1, 0.2, 0.3])
    path = tmp_path / "inst.csv"
    write_instance(inst, path)
    back = read_instance(path)
    assert np.array_equal(back.values, inst.values)
    assert np.array_equal(back.lam, inst.lam)
    assert back.label_offset == inst.label_offset


def test_read_without_sidecar(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("x,f1,f2\n0,1.0,2.0\n1,2.0,1.0\n")
    inst = read_instance(path)
    assert inst.size == 2
    assert inst.lam is None


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("idx,f1,f2\n0,1.0,2.0\n1,2.0,1.0\n")
    with pytest.raises(InstanceFormatError):
        read_instance(path)


def test_read_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "bad.csv"
    for body in ("1,1.0,2.0\n0,2.0,1.0\n", "0,1.0,2.0\n-1,2.0,1.0\n"):
        path.write_text("x,f1,f2\n" + body)
        with pytest.raises(InstanceFormatError, match="out of order"):
            read_instance(path)


def test_read_rejects_duplicate_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,f1,f2\n0,1.0,2.0\n0,2.0,1.0\n")
    with pytest.raises(InstanceFormatError, match="duplicate index"):
        read_instance(path)


def test_read_rejects_non_power_of_two(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,f1,f2\n0,1.0,2.0\n1,2.0,1.0\n2,3.0,3.0\n")
    with pytest.raises(InstanceFormatError):
        read_instance(path)


def test_read_rejects_negative_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,f1,f2\n0,1.0,-2.0\n1,2.0,1.0\n")
    with pytest.raises(InstanceFormatError):
        read_instance(path)


def test_read_rejects_inconsistent_sidecar(tmp_path):
    path = tmp_path / "inst.csv"
    path.write_text("x,f1,f2\n0,1.0,2.0\n1,2.0,1.0\n")
    (tmp_path / "inst.json").write_text(json.dumps({"n": 3, "d": 2}))
    with pytest.raises(InstanceFormatError):
        read_instance(path)


def _reference_read(path):
    """read_instance without a sidecar, as a csv.reader loop over the rows:
    the values' bytes, or the exception's type and message."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InstanceFormatError(f"{path}: empty file") from None
            d = len(header) - 1
            if d < 2 or header != ["x", *(f"f{i + 1}" for i in range(d))]:
                raise InstanceFormatError(
                    f"{path}: header must be x,f1,...,fd with d >= 2; got {header}"
                )
            rows = []
            for lineno, rec in enumerate(reader, start=2):
                if not rec:
                    continue
                if len(rec) != d + 1:
                    raise InstanceFormatError(
                        f"{path}:{lineno}: expected {d + 1} fields, got {len(rec)}"
                    )
                try:
                    x, vals = int(rec[0]), [float(v) for v in rec[1:]]
                except ValueError as exc:
                    raise InstanceFormatError(f"{path}:{lineno}: {exc}") from None
                if x != len(rows):
                    if 0 <= x < len(rows):
                        raise InstanceFormatError(f"{path}:{lineno}: duplicate index {x}")
                    raise InstanceFormatError(
                        f"{path}:{lineno}: index {x} out of order; "
                        f"expected {len(rows)} (gaps are not allowed)"
                    )
                if any(v < 0 for v in vals):
                    raise InstanceFormatError(f"{path}:{lineno}: negative objective value")
                rows.append(vals)
        if not rows:
            raise InstanceFormatError(f"{path}: no data rows")
        if len(rows) & (len(rows) - 1) or len(rows) < 2:
            raise InstanceFormatError(f"{path}: {len(rows)} rows do not cover a full 2^n domain")
        return McoInstance(np.asarray(rows)).values.tobytes()
    except csv.Error as exc:
        return InstanceFormatError, f"{path}:{reader.line_num}: {exc}"
    except Exception as exc:
        return type(exc), str(exc)


# Spellings that int() or float() accept and numpy may not, or that one of
# them refuses: each must read as the row loop reads it.
SPELLINGS = ["1_0", " 1 ", "+1", "01", "infinity", "nan", "-0", "-0.0", "1e400", "1e-400",
             "\u0661\u0662", "\uff12", "\t2\x0b", "1.0", "0x10", "", " ", "1__0", "-1", "-inf",
             "99999999999999999999", "2.5", "1e5"]


def _fuzz_tables(rng):
    """CSV texts around valid d = 2 and d = 3 tables, each with a few of
    the spellings, layout faults and header faults mixed in."""
    def pick(options):
        return options[rng.integers(len(options))]

    texts = []
    for d in (2, 3):
        header = "x," + ",".join(f"f{i + 1}" for i in range(d))
        ok = [[str(x)] + [repr(v) for v in rng.uniform(0, 9, d).tolist()] for x in range(4)]
        body = "\n".join(",".join(row) for row in ok)
        texts += [header + "\n" + body + "\n", header + "\n" + body, header + "\n", header,
                  header + "\n\n" + body, header + "\n" + body + "\n\n",
                  header + "\r\n" + body.replace("\n", "\r\n") + "\r\n",
                  header + "\n" + body.replace("1,", '"1",', 1) + "\n",
                  header + "\n" + body.replace(",", "\r,", 1) + "\n",
                  header + "\n" + body.replace(",", "," + "0" * csv.field_size_limit(), 1)
                  + "\n",
                  header + "\n" + body.replace("\n", "\n\n", 1) + "\n",
                  "\n" + body + "\n", ""]
        for spelling in SPELLINGS:
            for column in range(d + 1):
                rows = [row[:] for row in ok]
                rows[rng.integers(4)][column] = spelling
                texts.append(header + "\n" + "\n".join(",".join(r) for r in rows) + "\n")
        # Ragged rows whose field count is still a multiple of d + 1, and
        # whose first fields still count 0, 1, 2, 3 once flattened.
        ragged = {2: "0,1,2\n1,3\n4,2,5,6\n3,7,8", 3: "0,1,2,3\n1,4,5\n6,2,7,8,9\n3,1,1,1"}
        texts.append(header + "\n" + ragged[d] + "\n")
        for _ in range(60):
            size = int(pick([2, 4, 8]))
            rows = [[str(x)] + [repr(v) for v in rng.uniform(0, 9, d).tolist()]
                    for x in range(size)]
            for _ in range(int(rng.integers(0, 3))):
                row = rows[rng.integers(size)]
                row[rng.integers(d + 1)] = pick(SPELLINGS)
            if rng.random() < 0.2:
                row = rows[rng.integers(size)]
                row.append("1") if rng.random() < 0.5 else row.pop()
            if rng.random() < 0.1:
                rows[0][0] = pick(["+0", "00", "0.0", "1", " 0"])
            texts.append(header + "\n" + "\n".join(",".join(r) for r in rows)
                         + pick(["\n", "", "\n\n"]))
    return texts


# At 1 character per slice the fast reader parses each line on its own.
@pytest.mark.parametrize("chars", [1, 1 << 16])
def test_reader_fast_path_matches_row_loop(tmp_path, monkeypatch, chars):
    from moqa import instance_io

    monkeypatch.setattr(instance_io, "_PARSE_CHARS", chars)
    parse, fast = instance_io._parse_table, []

    def recorded(text):
        table = parse(text)
        fast.append(table is not None)
        return table

    monkeypatch.setattr(instance_io, "_parse_table", recorded)
    path = tmp_path / "t.csv"
    texts = _fuzz_tables(np.random.default_rng(19))
    for text in texts:
        path.write_bytes(text.encode())
        try:
            got = read_instance(path)
        except Exception as exc:
            got = type(exc), str(exc)
        else:
            assert got.values.flags.c_contiguous
            got = got.values.tobytes()
        assert got == _reference_read(path), repr(text)
    # Both parsers ran, and the accepted spellings went the fast way.
    assert len(fast) == len(texts) and 100 < sum(fast) < len(texts) - 100


def test_reader_rejects_ragged_rows_that_line_up(tmp_path):
    # 12 fields in 4 rows of 3 with an index column 0..3 once flattened,
    # but line 3 holds 2 fields.
    path = tmp_path / "t.csv"
    path.write_text("x,f1,f2\n0,1,2\n1,3\n4,2,5,6\n3,7,8\n")
    with pytest.raises(InstanceFormatError, match=r":3: expected 3 fields, got 2$"):
        read_instance(path)

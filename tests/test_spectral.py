"""Eigenvalue, gap-scan, and runtime-estimate tests.

The two-smallest-eigenpairs routine is checked against full dense
decompositions done directly with numpy, and so are the secular-equation
gap scan, delta_max and commutator norm of the default driver.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moqa import (
    ConfigurationError,
    DEGENERACY_TOL,
    DegenerateGapError,
    DiagonalHamiltonian,
    DimensionMismatchError,
    HermitianOperator,
    Linearization,
    NumericalRangeError,
    build_final,
    build_initial,
    builtin_instance,
    commutes,
    degeneracy_check,
    delta_max,
    end_gap_diagnostics,
    evolve,
    gap_scan,
    runtime_estimate,
    scalarize,
    smallest_two,
    uniform_grid,
)
from moqa import evolution, hamiltonians, spectral
from moqa.cli import EXIT_NUMERICAL, main
from moqa.spectral import GAP_CSV_HEADER, RESIDUAL_REL_TOL

from conftest import dense_driver, dense_oracle, dense_path, make_instance, random_instance


def random_hermitian(rng, dim, complex_entries=True):
    a = rng.normal(size=(dim, dim))
    if complex_entries:
        a = a + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


# ---------------------------------------------------------------------------
# smallest_two against a full-decomposition oracle


def test_smallest_two_matches_full_decomposition(rng):
    for _ in range(30):
        dim = int(rng.integers(2, 40))
        mat = random_hermitian(rng, dim, complex_entries=bool(rng.integers(0, 2)))
        low = smallest_two(HermitianOperator(mat))
        ref = np.sort(np.linalg.eigvalsh(mat))
        assert abs(low[0].value - ref[0]) <= 1e-10 * max(1.0, abs(ref[0]))
        assert abs(low[1].value - ref[1]) <= 1e-10 * max(1.0, abs(ref[1]))


def test_smallest_two_residual_contract(rng):
    mat = random_hermitian(rng, 24)
    op = HermitianOperator(mat)
    scale = np.linalg.norm(mat, 2)
    for pair in smallest_two(op):
        residual = np.linalg.norm(mat @ pair.vector - pair.value * pair.vector)
        assert residual <= RESIDUAL_REL_TOL * max(1.0, scale)
        assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-12


def test_smallest_two_orders_values(rng):
    mat = random_hermitian(rng, 8)
    lo, hi = smallest_two(HermitianOperator(mat))
    assert lo.value <= hi.value


# ---------------------------------------------------------------------------
# schedule grids


def test_uniform_grid_endpoints_and_spacing():
    grid = uniform_grid(5)
    assert np.allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_uniform_grid_needs_two_points():
    with pytest.raises(ConfigurationError):
        uniform_grid(1)


# ---------------------------------------------------------------------------
# gap scans


@pytest.fixture
def small_pair(rng):
    inst = random_instance(rng, 2, 2)
    h0 = build_initial(2)
    hw = build_final(inst, Linearization.pair(0.6))
    return h0, hw


def test_gap_scan_matches_direct_eigensolves(small_pair):
    h0, hw = small_pair
    curve = gap_scan(h0, hw, points=17)
    for k, s in enumerate(curve.s_values):
        mat = (1.0 - s) * dense_driver(h0.dim, h0.scale) + s * np.diag(hw.diagonal)
        ref = np.sort(np.linalg.eigvalsh(mat))
        assert abs(curve.lambda0[k] - ref[0]) <= 1e-10
        assert abs(curve.lambda1[k] - ref[1]) <= 1e-10
        assert abs(curve.gap[k] - (ref[1] - ref[0])) <= 1e-10


def test_gap_scan_default_grid_size(small_pair):
    h0, hw = small_pair
    curve = gap_scan(h0, hw)
    assert curve.s_values.size == 512
    assert curve.s_values[0] == 0.0 and curve.s_values[-1] == 1.0


def test_gap_scan_min_properties(small_pair):
    h0, hw = small_pair
    curve = gap_scan(h0, hw, points=64)
    k = int(np.argmin(curve.gap))
    assert curve.g_min == curve.gap[k]
    assert curve.s_at_min == curve.s_values[k]


def test_gap_curve_csv_format(tmp_path, small_pair):
    h0, hw = small_pair
    curve = gap_scan(h0, hw, points=8)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == GAP_CSV_HEADER == "s,lambda0,lambda1,gap"
    assert len(lines) == 9
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 4
        floats = [float(p) for p in parts]  # plain parseable numbers
        assert np.isfinite(floats).all()
        assert "np.float64" not in line


# ---------------------------------------------------------------------------
# degeneracy report


def test_degeneracy_unique_minimum():
    hw = DiagonalHamiltonian(np.array([3.0, 1.0, 2.0, 5.0]))
    report = degeneracy_check(hw)
    assert report.multiplicity == 1
    assert report.witnesses == (1,)
    assert report.min_value == 1.0


def test_degeneracy_exact_tie():
    hw = DiagonalHamiltonian(np.array([2.0, 1.0, 1.0, 5.0]))
    report = degeneracy_check(hw)
    assert report.multiplicity == 2
    assert report.witnesses == (1, 2)


def test_degeneracy_tolerance_window():
    hw = DiagonalHamiltonian(np.array([1.0, 1.0 + 5e-10, 3.0, 5.0]))
    assert degeneracy_check(hw).multiplicity == 2  # within the default window
    assert degeneracy_check(hw, tol=1e-12).multiplicity == 1


@pytest.mark.parametrize("tol", [
    np.nan, np.inf, -1e-9, True, "1e-9", pytest.param(10**400, id="int_1e400")
])
def test_degeneracy_rejects_bad_tolerance(tol):
    # True would otherwise be a tolerance of 1.0 and tie rows 1 and 2.
    hw = DiagonalHamiltonian(np.array([3.0, 1.0, 2.0, 5.0]))
    with pytest.raises(ConfigurationError):
        degeneracy_check(hw, tol=tol)


# ---------------------------------------------------------------------------
# norms and runtime calculator


def test_delta_max_one_bit_closed_form():
    h0 = build_initial(1)  # [[4,-4],[-4,4]]
    hw = DiagonalHamiltonian(np.array([0.0, 5.0]))
    # Hw - H0 = [[-4, 4], [4, 1]]: eigenvalues (-3 +- sqrt(89)) / 2
    expected = (3.0 + np.sqrt(89.0)) / 2.0
    assert abs(delta_max(h0, hw) - expected) <= 1e-12


def test_runtime_estimate_formulas():
    est = runtime_estimate(0.5, 2.0, delta=0.2, gap_floor=0.25)
    assert abs(est.t_heuristic - 2.0 / 0.25) <= 1e-12
    expected = 1e5 * (1.0 / 0.2) ** 2 * (8.0 / 0.25**4)
    assert abs(est.t_rigorous - expected) <= 1e-6
    assert est.gap_floor == 0.25


def test_runtime_estimate_reference_point_exact():
    est = runtime_estimate(1.0, 1.0, delta=0.1, gap_floor=1.0)
    assert est.t_rigorous == 1e7
    # still the plain formula near the top of the float range
    est = runtime_estimate(1e-60, 8.0)
    assert est.t_heuristic == 8.0 / (1e-60 * 1e-60)
    assert est.t_rigorous == 1e5 * (1.0 / 0.1) ** 2 * (8.0**3 / 1e-60**4)


def test_runtime_estimate_floor_defaults_to_gmin():
    est = runtime_estimate(0.5, 1.0)
    assert est.gap_floor == 0.5


def test_runtime_estimate_rejects_nonpositive_gap():
    with pytest.raises(DegenerateGapError):
        runtime_estimate(0.0, 1.0)
    with pytest.raises(DegenerateGapError):
        runtime_estimate(0.5, 1.0, gap_floor=0.0)


@pytest.mark.parametrize("g_min, dmax", [
    (1e-76, 8.0),  # t_rigorous is inf
    (1e-90, 8.0),  # gap_floor**4 underflows to 0
    (8.0, 7e200),  # delta_max**3 overflows
], ids=["infinite", "underflow", "overflow"])
def test_runtime_estimate_outside_float_range(g_min, dmax):
    with pytest.raises(NumericalRangeError, match="do not fit in float64"):
        runtime_estimate(g_min, dmax)


@pytest.mark.parametrize("g_min, dmax, gap_floor", [
    (True, 1.0, None), ("0.5", 1.0, None), (None, 1.0, None),
    (0.5, True, None), (0.5, "1.0", None), (0.5, None, None),
    (0.5, 1.0, True), (0.5, 1.0, "0.25"),
], ids=["g_min_bool", "g_min_str", "g_min_none", "dmax_bool", "dmax_str", "dmax_none",
        "floor_bool", "floor_str"])
def test_runtime_estimate_rejects_non_real_inputs(g_min, dmax, gap_floor):
    # True would otherwise be a gap of 1.0, kept as the bool gap floor.
    with pytest.raises(ConfigurationError, match="must be a real number") as info:
        runtime_estimate(g_min, dmax, gap_floor=gap_floor)
    assert info.value.exit_code == 1


def test_runtime_estimate_rejects_bad_delta():
    for delta in (1.5, "0.1", None):
        with pytest.raises(ConfigurationError):
            runtime_estimate(0.5, 1.0, delta=delta)


# ---------------------------------------------------------------------------
# end-of-schedule diagnostics


DIAG_VALUES = [[0.0, 6.0], [2.0, 3.0], [5.0, 1.0], [7.0, 0.0]]


def test_end_gap_diagnostics_hand_case():
    inst = make_instance(DIAG_VALUES, lam=[0.5, 0.5])
    w = Linearization.pair(0.5)
    diag = end_gap_diagnostics(inst, w)
    scal = scalarize(inst, w)
    order = np.sort(scal)
    assert abs(diag.min_weighted_value - order[0]) <= 1e-12
    assert abs(diag.second_weighted_value - order[1]) <= 1e-12
    assert abs(diag.end_gap - (order[1] - order[0])) <= 1e-12
    assert abs(diag.weighted_separation - 0.5) <= 1e-12
    assert diag.minimizer == int(np.argmin(scal))


def test_end_gap_diagnostics_trivial_minimizer_suppresses_bound():
    # w close to 1 pushes the minimizer to the first objective's optimum
    inst = make_instance(DIAG_VALUES, lam=[0.5, 0.5])
    diag = end_gap_diagnostics(inst, Linearization.pair(0.99))
    assert diag.minimizer_is_trivial
    assert diag.min_exceeds_weighted_separation is None


def test_end_gap_diagnostics_nontrivial_minimizer_reports_bound():
    inst = make_instance([[0.0, 9.0], [4.0, 3.0], [6.0, 2.0], [9.0, 0.0]], lam=[0.5, 0.5])
    w = Linearization.pair(0.5)
    diag = end_gap_diagnostics(inst, w)
    assert not diag.minimizer_is_trivial
    assert diag.min_exceeds_weighted_separation is not None
    scal = scalarize(inst, w)
    expected = bool(scal.min() > 0.5)
    assert diag.min_exceeds_weighted_separation == expected


def test_end_gap_diagnostics_with_scan_curve(rng):
    inst = random_instance(rng, 2, 2).with_lambda([0.01, 0.01])
    w = Linearization.pair(0.5)
    h0 = build_initial(2)
    hw = build_final(inst, w)
    curve = gap_scan(h0, hw, points=64)
    diag = end_gap_diagnostics(inst, w, gap_curve=curve)
    assert diag.scan_g_min == curve.g_min
    assert diag.min_gap_attained_at_end == (
        curve.g_min >= diag.end_gap - DEGENERACY_TOL
    )


# ---------------------------------------------------------------------------
# default-driver fast path against the dense oracle of conftest


@st.composite
def default_driver_cases(draw):
    """(scale, diagonal) on n <= 8 bits with few, repeated levels."""
    n = draw(st.integers(1, 8))
    level = st.floats(0.0, 1e6, allow_subnormal=False)
    pool = draw(st.lists(level, min_size=1, max_size=6))
    seed = draw(st.integers(0, 2**32 - 1))
    diag = np.asarray(pool)[np.random.default_rng(seed).integers(0, len(pool), 1 << n)]
    scale = draw(st.sampled_from([8.0, 0.25, 3.0, 1e3]))
    return scale, diag


@settings(max_examples=40, deadline=None)
@given(case=default_driver_cases())
@example(case=(8.0, np.array([2.0, 0.5, 0.5, 7.0, 3.0, 3.0, 3.0, 9.0])))  # tied min
@example(case=(8.0, np.array([1.0, 4.0, 4.0, 4.0, 2.0, 6.0, 6.0, 5.0])))  # repeats
@example(case=(3.0, np.full(256, 987654.321)))  # one level
@example(case=(0.25, np.array([0.0, 1e6])))  # n = 1, wide range
@example(case=(1e3, np.array([3.0, 3.0])))  # n = 1, tied
def test_default_driver_matches_dense_oracle(case):
    scale, diag = case
    h0 = build_initial(diag.size.bit_length() - 1, scale=scale)
    hw = DiagonalHamiltonian(diag)
    curve = gap_scan(h0, hw, points=9)
    ref, dmax, comm = dense_oracle(dense_driver(diag.size, scale), diag, curve.s_values)
    tol = 1e-9 * np.maximum(1.0, ref[:, 2])
    assert np.all(np.abs(curve.lambda0 - ref[:, 0]) <= tol)
    assert np.all(np.abs(curve.lambda1 - ref[:, 1]) <= tol)
    assert np.all(np.abs(curve.gap - (ref[:, 1] - ref[:, 0])) <= tol)
    assert abs(delta_max(h0, hw) - dmax) <= 1e-9 * max(1.0, dmax)
    check = commutes(h0, hw)
    assert abs(check.norm - comm) <= 1e-9 * max(1.0, scale * diag.max())
    if np.all(diag == diag[0]):
        assert check.commuting and check.norm == 0.0
    # The endpoints are closed forms: H(0) has spectrum {0, scale}, and
    # H(1) is the diagonal itself, a tied minimum included.
    low = np.sort(diag)
    assert (curve.lambda0[0], curve.lambda1[0]) == (0.0, scale)
    assert (curve.lambda0[-1], curve.lambda1[-1]) == (low[0], low[1])


def test_default_driver_skips_dense_solvers(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense solver ran")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    monkeypatch.setattr(spectral, "interpolation_dense", refuse)
    h0 = build_initial(5)
    hw = DiagonalHamiltonian(rng.uniform(0.0, 50.0, 32))
    assert gap_scan(h0, hw, points=16).g_min > 0.0
    assert delta_max(h0, hw) > 0.0
    assert commutes(h0, hw).norm > 0.0


def test_nondefault_driver_matches_dense_oracle(rng):
    h_values = np.r_[0.0, rng.uniform(1.0, 4.0, 7)]
    h0 = build_initial(3, scale=2.0, h_values=h_values)
    diag = rng.uniform(0.0, 20.0, 8)
    hw = DiagonalHamiltonian(diag)
    curve = gap_scan(h0, hw, points=9)
    ref, dmax, comm = dense_oracle(dense_driver(8, 2.0, h_values), diag, curve.s_values)
    tol = 1e-9 * np.maximum(1.0, ref[:, 2])
    assert np.all(np.abs(curve.lambda0 - ref[:, 0]) <= tol)
    assert np.all(np.abs(curve.lambda1 - ref[:, 1]) <= tol)
    assert abs(delta_max(h0, hw) - dmax) <= 1e-9 * max(1.0, dmax)
    assert abs(commutes(h0, hw).norm - comm) <= 1e-9 * max(1.0, comm)


@pytest.mark.parametrize("default", [True, False], ids=["default", "nondefault"])
@pytest.mark.parametrize("call", [
    lambda h0, hw: gap_scan(h0, hw, points=4), delta_max, commutes,
    lambda h0, hw: evolve(h0, hw, 1.0, steps=4),
    lambda h0, hw: hamiltonians.interpolation_dense(h0, hw, 0.5),
], ids=["gap_scan", "delta_max", "commutes", "evolve", "interpolation_dense"])
def test_dimension_mismatch_raises_before_any_work(monkeypatch, default, call):
    h0 = build_initial(3, h_values=None if default else np.r_[0.0, np.full(7, 2.0)])
    hw = DiagonalHamiltonian(np.arange(4.0))

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the dimension check")

    for owner, name in [(scipy.linalg, "eigh"), (np.linalg, "eigvalsh"),
                        (np.linalg, "norm"), (np, "unique"), (np, "std"),
                        (spectral, "interpolation_dense"), (spectral, "rank_one_eigh"),
                        (evolution, "interpolation_dense"),
                        (hamiltonians.InitialHamiltonian, "dense")]:
        monkeypatch.setattr(owner, name, refuse)
    with pytest.raises(DimensionMismatchError):
        call(h0, hw)


# ---------------------------------------------------------------------------
# rank_one_eigh and rank_one_vectors, the level-basis eigensolver of the
# default-driver schedule


def _eigenpairs(levels, weights, couplings, guess=None):
    """Eigenvalues per problem, and each problem's vectors as columns."""
    levels = np.asarray(levels, dtype=np.float64)
    pole, offset, zhat = spectral.rank_one_eigh(levels, weights, couplings, guess)
    vectors = [spectral.rank_one_vectors(levels, *row).T for row in zip(zhat, pole, offset)]
    return levels[pole] + offset, np.array(vectors)


def _kernel_cases():
    rng = np.random.default_rng(7)
    unit = np.sort(rng.uniform(0.0, 1.0, 48))
    ulps = 1.0 + (np.nextafter(1.0, 2.0) - 1.0) * np.array([0.0, 1.0, 2.0, 4.0, 7.0])
    for name, levels in [
        ("unit", unit),
        ("1e100", unit * 1e100),
        ("1e200", unit * 1e200),
        ("decades", np.logspace(-3, 200, 40)),
        ("ulps", np.r_[ulps, 2.0, 3.0]),
        ("tiny_gaps", np.array([0.0, 1e-300, 3e-300, 1e-3, 1.0])),
    ]:
        weights = rng.integers(1, 6, levels.size).astype(float)
        yield pytest.param(levels, weights / weights.sum(), id=name)
    wide = np.random.default_rng(4)
    levels = np.sort(wide.uniform(0.0, 1.0, 100))
    weights = 10.0 ** wide.uniform(-8.0, 0.0, 100)
    yield pytest.param(levels, weights / weights.sum(), id="wide_weights")
    # Vectors built from the given weights instead of the recomputed ones
    # lose orthogonality to about 1e-12 here.
    levels = np.array([1.75, 2.5, 3.0, 3.75, 4.25, 4.5, 8.0])
    weights = np.array([1.0, 1.0, 1.6e-12, 1.0, 1.0, 1.0, 2.5e-12])
    yield pytest.param(levels, weights / weights.sum(), id="tiny_weights")


# g = (1 - s) * scale / s for s from 1e-9 (near the start of the schedule)
# to 1 - 1e-6, at the default scale.
KERNEL_S = np.array([1e-9, 1e-6, 1e-3, 0.5, 1.0 - 1e-6])
KERNEL_COUPLINGS = (1.0 - KERNEL_S) * 8.0 / KERNEL_S


def _assert_dense_eigenpairs(levels, weights, couplings, values, vectors):
    z = np.sqrt(weights)
    for g, vals, vecs in zip(couplings, values, vectors):
        mat = np.diag(levels) - g * np.outer(z, z)
        ref = np.linalg.eigvalsh(mat)
        norm = np.max(np.abs(ref))
        assert np.max(np.abs(vals - ref)) <= 1e-14 * norm
        assert np.all(np.diff(vals) >= 0)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(levels.size))) <= 1e-13
        assert np.max(np.abs(mat @ vecs - vecs * vals)) <= 1e-14 * norm


@pytest.mark.parametrize("levels, weights", _kernel_cases())
def test_rank_one_eigh_matches_dense_eigvalsh(levels, weights):
    values, vectors = _eigenpairs(levels, weights, KERNEL_COUPLINGS)
    _assert_dense_eigenpairs(levels, weights, KERNEL_COUPLINGS, values, vectors)


def _starts(levels, pole, offset):
    """Guesses for the roots levels[pole] + offset, one kind per name."""
    k = np.arange(levels.size)
    left, right = np.maximum(k - 1, 0), np.maximum(k, 1)
    far = np.where(pole == left, right, left)
    # Root 0 has no right pole: a guess naming pole 1 is taken from pole 0.
    return {
        "root": (pole, offset),
        "left_end": (np.broadcast_to(left, pole.shape), np.zeros(pole.shape)),
        "right_end": (np.broadcast_to(right, pole.shape), np.zeros(pole.shape)),
        "far_pole": (far, (levels[pole] - levels[far]) + offset),
        "below": (pole, np.full(pole.shape, -np.inf)),
        "above": (pole, np.full(pole.shape, 1e300)),
    }


@pytest.mark.parametrize("levels, weights", _kernel_cases())
def test_guessed_rank_one_eigh_matches_cold(levels, weights):
    # Guesses on the root, at either end of the bracket, from the far pole
    # and outside the bracket all reach the cold solve's accuracy.
    cold = spectral.rank_one_eigh(levels, weights, KERNEL_COUPLINGS)
    cold_values = levels[cold[0]] + cold[1]
    for name, guess in _starts(levels, *cold[:2]).items():
        values, vectors = _eigenpairs(levels, weights, KERNEL_COUPLINGS, guess)
        _assert_dense_eigenpairs(levels, weights, KERNEL_COUPLINGS, values, vectors)
        norm = np.max(np.abs(values), axis=1, keepdims=True)
        assert np.all(np.abs(values - cold_values) <= 1e-14 * norm), name


def test_guess_in_root_major_layout_receives_the_roots():
    (levels, weights), = [case.values for case in _kernel_cases() if case.id == "unit"]
    cold = spectral.rank_one_eigh(levels, weights, KERNEL_COUPLINGS)
    pole, offset = (part.T.copy() for part in cold[:2])
    offset *= 0.5
    warm = spectral.rank_one_eigh(levels, weights, KERNEL_COUPLINGS, (pole.T, offset.T))
    assert np.shares_memory(warm[0], pole) and np.shares_memory(warm[1], offset)
    assert np.max(np.abs(warm[1] - cold[1]) / np.abs(cold[1])) <= 1e-14
    # A solve without a guess is the cold one, bit for bit.
    again = spectral.rank_one_eigh(levels, weights, KERNEL_COUPLINGS)
    assert all(new.tobytes() == old.tobytes() for new, old in zip(again, cold))


def test_warm_starts_follow_the_anchor_rule(monkeypatch):
    # 100 slices: anchors at 0, 8, ..., 96 and 99.
    levels, counts = np.unique(
        build_final(builtin_instance(), Linearization.pair(0.57)).diagonal, return_counts=True
    )
    weights, steps = counts / 128.0, 100
    s = (np.arange(steps) + 0.5) / steps
    couplings = (1.0 - s) * 8.0 / s
    kernel, calls = spectral.rank_one_eigh, []

    def recorded(levels, weights, couplings, guess=None):
        calls.append((couplings, None if guess is None else [part.copy() for part in guess]))
        return kernel(levels, weights, couplings, guess)

    monkeypatch.setattr(spectral, "rank_one_eigh", recorded)
    out = list(spectral._slice_roots(levels, weights, couplings, steps))
    (anchors, cold_guess), (warm, guess) = calls
    assert cold_guess is None
    assert anchors.tolist() == couplings[[*range(0, steps, 8), steps - 1]].tolist()
    rows = [k for k in range(steps) if k % 8 and k != steps - 1]
    assert warm.tolist() == couplings[rows].tolist()
    for (pole, offset), k in zip(zip(*guess), rows):
        below, above = k - k % 8, min(k - k % 8 + 8, steps - 1)
        t = (k - below) / (above - below)
        (p0, o0, _), (p1, o1, _) = out[below], out[above]
        near_p, near_o = (p1, o1) if t > 0.5 else (p0, o0)
        assert pole.tolist() == near_p.tolist()
        expected = np.where(p0 == p1, o0 + t * (o1 - o0), near_o)
        assert offset.tobytes() == expected.tobytes()


@pytest.mark.parametrize("steps", [100, 20])
def test_slice_roots_do_not_depend_on_the_part_size(steps):
    # Anchors are solved from the midpoints and the slices between start
    # from them, so no root depends on where the parts of the schedule end.
    levels, counts = np.unique(
        build_final(builtin_instance(), Linearization.pair(0.57)).diagonal, return_counts=True
    )
    s = (np.arange(steps) + 0.5) / steps
    couplings = (1.0 - s) * 8.0 / s

    def roots(block):
        out = spectral._slice_roots(levels, counts / 128.0, couplings, block)
        return [b"".join(part.tobytes() for part in row) for row in out]

    whole = roots(steps)
    assert len(whole) == steps
    for block in (1, 6, 9):
        assert roots(block) == whole, block


def test_warm_starts_cut_root_steps_on_the_bundled_schedule(monkeypatch):
    # Each step of the iteration solves two model quadratics over the rows
    # still active, so their sizes count the secular-function evaluations,
    # and a block of rows takes as many steps as its slowest root.
    levels, counts = np.unique(
        build_final(builtin_instance(), Linearization.pair(0.57)).diagonal, return_counts=True
    )
    s = (np.arange(512) + 0.5) / 512
    couplings = (1.0 - s) * 8.0 / s
    quadratic, block, blocks = spectral._quadratic_roots, spectral._secular_block, []

    def counted(*args):
        blocks[-1].append(args[0].size)
        return quadratic(*args)

    def blocked(*args):
        blocks.append([])
        return block(*args)

    monkeypatch.setattr(spectral, "_quadratic_roots", counted)
    monkeypatch.setattr(spectral, "_secular_block", blocked)

    def per_root():
        blocks.clear()
        for _ in spectral._slice_roots(levels, counts / 128.0, couplings, 512):
            pass
        mean = sum(map(sum, blocks)) / 2 / (512 * levels.size)
        return mean, max(map(len, blocks)) // 2

    warm, most = per_root()
    monkeypatch.setattr(spectral, "WARM_MIN_STEPS", 513)
    cold, _ = per_root()
    assert cold > 4.0
    assert warm <= 2.5 and most <= 6


def _broadcast_gaps(levels, pole, offset, out=None):
    """(levels_j - levels[pole_r]) - offset_r by two broadcast passes, as
    the kernels formed it before the k = 2 matrix product: the oracle."""
    gaps = np.subtract(levels, levels[pole, None], out=out)
    gaps -= offset[:, None]
    return gaps


ULP = np.nextafter(1.0, 2.0) - 1.0


@pytest.mark.parametrize("levels", [
    pytest.param(np.array([0.0, 5e-324, 1e-310, 2.5]), id="subnormal_gaps"),
    pytest.param(1.0 + ULP * np.array([0.0, 1.0, 3.0, 4.0, 9.0]), id="ulps"),
    pytest.param(np.r_[-1e300, -1e-300, 0.0, np.logspace(-300, 300, 9)], id="spread"),
    pytest.param(np.sort(np.random.default_rng(3).uniform(-50.0, -1e-3, 12)), id="negative"),
    pytest.param(np.array([-0.5, 3.0]), id="two_levels"),
])
def test_level_gaps_match_the_broadcast_passes_bit_for_bit(monkeypatch, levels):
    # Both products of [levels[pole], 1] times [-1; levels] are exact, so
    # the product rounds each gap once, as the subtraction does, whatever
    # BLAS kernel sums the two terms.
    weights = np.random.default_rng(levels.size).uniform(0.5, 1.5, levels.size)
    weights /= weights.sum()
    couplings = np.array([1e-3, 0.5, 8.0, 1e3])
    k, g = np.arange(levels.size).repeat(couplings.size), np.tile(couplings, levels.size)
    left, right = np.maximum(k - 1, 0), np.maximum(k, 1)

    def results():
        pole, offset = spectral.secular_roots(levels, weights, k, g)
        far = np.where((pole == left) & (k > 0), right, left)
        guesses = [(pole.copy(), 0.5 * offset), (far, (levels[pole] - levels[far]) + offset)]
        out = [pole, offset]
        for guess in guesses:
            out += spectral.secular_roots(levels, weights, k, g, guess)
        try:
            eigh = spectral.rank_one_eigh(levels, weights, couplings)
        except NumericalRangeError as error:
            # Levels closer than the smallest normal float have no weights.
            out.append(str(error))
            zhat = np.sqrt(weights)
        else:
            out += eigh
            zhat = eigh[2][2]
        with np.errstate(all="ignore"):
            out.append(spectral.rank_one_vectors(levels, zhat, pole[2::4], offset[2::4]))
        return [x if isinstance(x, str) else x.tobytes() for x in out]

    rng = np.random.default_rng(0)
    pole = rng.integers(0, levels.size, 64)
    offset = rng.uniform(-2.0, 2.0, 64) * np.abs(levels[pole] - levels[pole - 1])
    buffer = np.empty((64, levels.size))
    gaps = spectral._level_gaps(levels, pole, offset, out=buffer)
    assert gaps is buffer
    assert gaps.tobytes() == _broadcast_gaps(levels, pole, offset).tobytes()
    new = results()
    monkeypatch.setattr(spectral, "_level_gaps", _broadcast_gaps)
    assert new == results()


@pytest.mark.parametrize("size", [1, 3])
def test_rank_one_eigh_without_problems_returns_empty_results(size):
    levels = np.arange(1.0, size + 1.0)
    results = spectral.rank_one_eigh(levels, np.full(size, 1.0 / size), np.array([]))
    assert [part.shape for part in results] == [(0, size)] * 3


def test_rank_one_eigh_single_level_is_closed_form():
    values, vectors = _eigenpairs([3.0], [1.0], [2.0, 0.5])
    assert values.tolist() == [[1.0], [2.5]]
    assert vectors.tolist() == [[[1.0]], [[1.0]]]


def test_rank_one_eigh_refuses_subnormal_gaps():
    # The reciprocal of a subnormal distance is infinite; rank_one_evolve
    # merges such levels before it calls the kernel.
    with pytest.raises(NumericalRangeError, match="left float range"):
        spectral.rank_one_eigh([0.0, 5e-324, 1.0], np.full(3, 1.0 / 3.0), [8.0])


def test_rank_one_eigh_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(spectral, "RANK_ONE_MAX_STEPS", 2)
    levels = np.linspace(0.0, 1.0, 16)
    with pytest.raises(NumericalRangeError, match="did not converge") as info:
        spectral.rank_one_eigh(levels, np.full(16, 1.0 / 16), [8.0])
    assert info.value.exit_code == 4


def test_secular_iteration_cap_fails_gap_scan_and_delta_max(monkeypatch, tmp_path, capsys):
    # A root that has not converged is a numerical failure, never a guess.
    monkeypatch.setattr(spectral, "RANK_ONE_MAX_STEPS", 2)
    h0 = build_initial(7)
    hw = build_final(builtin_instance(), Linearization.pair(0.57))
    for call in (lambda: gap_scan(h0, hw, points=16), lambda: delta_max(h0, hw)):
        with pytest.raises(NumericalRangeError, match="did not converge") as info:
            call()
        assert info.value.exit_code == 4
    curve, out = tmp_path / "c.csv", tmp_path / "scan.json"
    assert main(["gap-scan", "--builtin", "--w", "0.57", "--points", "16",
                 "--curve", str(curve), "--output", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not curve.exists() and not out.exists()


@pytest.mark.parametrize("tied", [False, True], ids=["unique_min", "tied_min"])
def test_gap_is_bit_identical_under_an_exact_diagonal_shift(tied):
    # Multiples of 1/128 below 2**10 stay exact when 2**20 is added, so the
    # shifted diagonal has the same level differences and the same gaps,
    # though its energies are a thousand times larger.
    rng = np.random.default_rng(10)
    diag = rng.integers(0, 1 << 17, 1024) / 128.0
    if tied:
        diag[np.argsort(diag)[1]] = diag.min()
    shifted = diag + 2.0**20
    assert np.array_equal(shifted - 2.0**20, diag)
    h0 = build_initial(10)
    curve = gap_scan(h0, DiagonalHamiltonian(diag), points=32)
    moved = gap_scan(h0, DiagonalHamiltonian(shifted), points=32)
    assert moved.gap.tobytes() == curve.gap.tobytes()
    assert np.all(curve.gap[:-1] > 0.0)


def test_secular_roots_accepts_zero_rows():
    pole, offset = spectral.secular_roots(
        np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.array([], dtype=np.intp), np.array([])
    )
    assert pole.shape == offset.shape == (0,)


@pytest.mark.parametrize("points", [2, 3])
@pytest.mark.parametrize("diag", [
    pytest.param(np.array([3.0, 1.0, 2.0, 7.0]), id="unique_min"),
    pytest.param(np.array([3.0, 1.0, 1.0, 7.0]), id="tied_min"),
    pytest.param(np.full(4, 2.5), id="one_level"),
])
def test_default_driver_endpoints_only_and_one_level(diag, points):
    # points = 2 leaves no interior sample, so the kernel gets no rows.
    h0 = build_initial(2, scale=3.0)
    hw = DiagonalHamiltonian(diag)
    curve = gap_scan(h0, hw, points=points)
    ref, dmax, _ = dense_oracle(dense_driver(4, 3.0), diag, curve.s_values)
    tol = 1e-13 * ref[:, 2]
    assert np.all(np.abs(curve.lambda0 - ref[:, 0]) <= tol)
    assert np.all(np.abs(curve.lambda1 - ref[:, 1]) <= tol)
    assert np.all(np.abs(curve.gap - (ref[:, 1] - ref[:, 0])) <= tol)
    assert abs(delta_max(h0, hw) - dmax) <= 1e-13 * dmax


# evolve's 64 slices take warm starts from anchors 8 slices apart.  Its
# chunks of slices are 1 slice long at block 1, and at K = 128 they are 8
# long at block 1 << 10 and 6 long at block 768, so the chunk edges fall
# on anchors and inside the slices between them.
@pytest.mark.parametrize("block", [1, 1 << 10, 768])
def test_secular_block_size_leaves_results_unchanged(monkeypatch, block):
    h0 = build_initial(7)
    unique = build_final(builtin_instance(), Linearization.pair(0.57))
    tied = unique.diagonal.copy()
    tied[np.argsort(tied)[1]] = tied.min()
    problems = [(h0, unique), (h0, DiagonalHamiltonian(tied))]
    (levels, weights), = [case.values for case in _kernel_cases() if case.id == "unit"]
    couplings = np.array([1e-3, 0.5, 8.0, 1e4])
    # evolve at block 1 on the bundled table's K = 128 would take seconds.
    if block == 1:
        run = (build_initial(5), DiagonalHamiltonian(np.random.default_rng(5).uniform(0, 9, 32)))
    else:
        run = (h0, unique)

    assert 64 >= spectral.WARM_MIN_STEPS and spectral.ANCHOR == 8
    kernel = spectral.rank_one_eigh

    def results():
        curves = [gap_scan(*pair, points=33) for pair in problems]
        roots = spectral.rank_one_eigh(levels, weights, couplings)
        # Each evolve slice's roots and weights, by its coupling.
        slices = {}

        def recorded(*args):
            out = kernel(*args)
            for g, *row in zip(args[2], *out):
                slices[g] = b"".join(part.tobytes() for part in row)
            return out

        monkeypatch.setattr(spectral, "rank_one_eigh", recorded)
        state = evolve(*run, 20.0, steps=64).final_state
        monkeypatch.setattr(spectral, "rank_one_eigh", kernel)
        return curves, [delta_max(*pair) for pair in problems], roots, state, slices

    curves, dmax, (pole, offset, zhat), state, slices = results()
    monkeypatch.setattr(spectral, "RANK_ONE_BLOCK", block)
    new_curves, new_dmax, (new_pole, new_offset, new_zhat), new_state, new_slices = results()
    # Anchors start at the bracket midpoints and the other slices start from
    # them, so no slice's roots depend on where the chunks of slices end.
    assert len(slices) == 64 and new_slices == slices
    for curve, new in zip(curves, new_curves):
        for name in ("lambda0", "lambda1", "gap"):
            assert getattr(new, name).tobytes() == getattr(curve, name).tobytes()
    assert new_dmax == dmax
    # The weight products run over the roots in order in any blocking, so
    # the roots, the weights and the vectors formed from them keep their bits.
    for old, new in [(pole, new_pole), (offset, new_offset), (zhat, new_zhat)]:
        assert new.tobytes() == old.tobytes()
    # The slice products regroup their sums across row blocks.
    assert np.max(np.abs(new_state - state)) <= 1e-14
    if block == 1:
        dense = dense_path(*run, 20.0, steps=64).final_state
        assert np.max(np.abs(new_state - dense)) <= 1e-9


# At K = 32 a chunk of 64 slices rounds up to whole strides of 8: chunks
# of 1, 6 and 8 slices make 8-slice parts, and chunk 9 makes 16-slice
# parts.  20 slices have stride 1, so chunk 6 makes 6-slice parts.  Each
# part's last anchor is the next part's first, solved once.
@pytest.mark.parametrize("steps, chunk", [
    pytest.param(64, chunk, id=str(chunk)) for chunk in (1, 6, 8, 9)
] + [pytest.param(20, 6, id="20_slices-6")])
def test_evolve_solves_each_slice_once_across_chunks(monkeypatch, steps, chunk):
    run = (build_initial(5), DiagonalHamiltonian(np.random.default_rng(5).uniform(0, 9, 32)))
    kernel, rows = spectral.rank_one_eigh, []

    def counted(levels, weights, couplings, guess=None):
        rows.append(len(couplings))
        return kernel(levels, weights, couplings, guess)

    state = evolve(*run, 20.0, steps=steps).final_state
    monkeypatch.setattr(spectral, "rank_one_eigh", counted)
    monkeypatch.setattr(spectral, "RANK_ONE_BLOCK", chunk * 32)
    chunked = evolve(*run, 20.0, steps=steps).final_state
    assert sum(rows) == steps
    assert np.max(np.abs(chunked - state)) <= 1e-14


@pytest.mark.parametrize("scale", [8.0, 0.25])
@pytest.mark.parametrize("tied", [False, True], ids=["unique_min", "tied_min"])
@pytest.mark.parametrize("levels", [
    pytest.param(case.values[0], id=case.id) for case in _kernel_cases()
    if case.id in ("1e100", "1e200", "decades", "ulps", "tiny_gaps")
])
def test_default_driver_matches_dense_oracle_at_extreme_ranges(levels, tied, scale):
    # n = 7 diagonals over level sets that span hundreds of decades, sit a
    # few ulps apart, or are 1e-300 apart, with the minimum once or twice.
    rng = np.random.default_rng(levels.size)
    low = levels[:1].repeat(2 if tied else 1)
    diag = rng.permutation(np.r_[low, rng.choice(levels[1:], 128 - low.size)])
    h0 = build_initial(7, scale=scale)
    hw = DiagonalHamiltonian(diag)
    curve = gap_scan(h0, hw, points=17)
    ref, dmax, _ = dense_oracle(dense_driver(128, scale), diag, curve.s_values)
    tol = 1e-13 * ref[:, 2]
    assert np.all(np.abs(curve.lambda0 - ref[:, 0]) <= tol)
    assert np.all(np.abs(curve.lambda1 - ref[:, 1]) <= tol)
    assert abs(delta_max(h0, hw) - dmax) <= 1e-13 * dmax

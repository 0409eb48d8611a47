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
    commutes,
    degeneracy_check,
    delta_max,
    end_gap_diagnostics,
    gap_scan,
    runtime_estimate,
    scalarize,
    smallest_two,
    uniform_grid,
)
from moqa import hamiltonians, spectral
from moqa.spectral import GAP_CSV_HEADER, RESIDUAL_REL_TOL

from conftest import dense_driver, dense_oracle, make_instance, random_instance


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


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
def test_degeneracy_rejects_bad_tolerance(tol):
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


def test_runtime_estimate_rejects_bad_delta():
    with pytest.raises(ConfigurationError):
        runtime_estimate(0.5, 1.0, delta=1.5)


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
], ids=["gap_scan", "delta_max", "commutes"])
def test_dimension_mismatch_raises_before_any_work(monkeypatch, default, call):
    h0 = build_initial(3, h_values=None if default else np.r_[0.0, np.full(7, 2.0)])
    hw = DiagonalHamiltonian(np.arange(4.0))

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the dimension check")

    for owner, name in [(scipy.linalg, "eigh"), (np.linalg, "eigvalsh"),
                        (np.linalg, "norm"), (np, "unique"), (np, "std"),
                        (spectral, "interpolation_dense"),
                        (hamiltonians.InitialHamiltonian, "dense")]:
        monkeypatch.setattr(owner, name, refuse)
    with pytest.raises(DimensionMismatchError):
        call(h0, hw)


# ---------------------------------------------------------------------------
# rank_one_eigh, the level-basis eigensolver of the default-driver schedule


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


@pytest.mark.parametrize("levels, weights", _kernel_cases())
def test_rank_one_eigh_matches_dense_eigvalsh(levels, weights):
    # g = (1 - s) * scale / s for s from 1e-9 (near the start of the
    # schedule) to 1 - 1e-6, at the default scale.
    s = np.array([1e-9, 1e-6, 1e-3, 0.5, 1.0 - 1e-6])
    couplings = (1.0 - s) * 8.0 / s
    values, vectors = spectral.rank_one_eigh(levels, weights, couplings)
    z = np.sqrt(weights)
    for g, vals, vecs in zip(couplings, values, vectors):
        mat = np.diag(levels) - g * np.outer(z, z)
        ref = np.linalg.eigvalsh(mat)
        norm = np.max(np.abs(ref))
        assert np.max(np.abs(vals - ref)) <= 1e-14 * norm
        assert np.all(np.diff(vals) >= 0)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(levels.size))) <= 1e-13
        assert np.max(np.abs(mat @ vecs - vecs * vals)) <= 1e-14 * norm


def test_rank_one_eigh_single_level_is_closed_form():
    values, vectors = spectral.rank_one_eigh([3.0], [1.0], [2.0, 0.5])
    assert values.tolist() == [[1.0], [2.5]]
    assert vectors.tolist() == [[[1.0]], [[1.0]]]


def test_rank_one_eigh_refuses_subnormal_gaps():
    # The reciprocal of a subnormal distance is infinite; evolve merges
    # such levels before it calls the kernel.
    with pytest.raises(NumericalRangeError, match="left float range"):
        spectral.rank_one_eigh([0.0, 5e-324, 1.0], np.full(3, 1.0 / 3.0), [8.0])


def test_rank_one_eigh_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(spectral, "RANK_ONE_MAX_STEPS", 2)
    levels = np.linspace(0.0, 1.0, 16)
    with pytest.raises(NumericalRangeError, match="did not converge") as info:
        spectral.rank_one_eigh(levels, np.full(16, 1.0 / 16), [8.0])
    assert info.value.exit_code == 4

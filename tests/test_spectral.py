"""Eigenvalue, gap-scan, and runtime-estimate tests.

The two-smallest-eigenpairs routine is checked against full dense
decompositions done directly with numpy.
"""

import numpy as np
import pytest

from moqa import (
    ConfigurationError,
    DEGENERACY_TOL,
    DegenerateGapError,
    DiagonalHamiltonian,
    HermitianOperator,
    Linearization,
    build_final,
    build_initial,
    degeneracy_check,
    delta_max,
    end_gap_diagnostics,
    gap_scan,
    runtime_estimate,
    scalarize,
    smallest_two,
    uniform_grid,
)
from moqa.spectral import GAP_CSV_HEADER, RESIDUAL_REL_TOL

from conftest import make_instance, random_instance


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
        mat = (1.0 - s) * h0.dense() + s * np.diag(hw.diagonal)
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


def test_runtime_estimate_floor_defaults_to_gmin():
    est = runtime_estimate(0.5, 1.0)
    assert est.gap_floor == 0.5


def test_runtime_estimate_rejects_nonpositive_gap():
    with pytest.raises(DegenerateGapError):
        runtime_estimate(0.0, 1.0)
    with pytest.raises(DegenerateGapError):
        runtime_estimate(0.5, 1.0, gap_floor=0.0)


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

"""Operator construction tests.

Matrix-level claims are checked against dense numpy reference
computations built inline, not against the package's own helpers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moqa import (
    ConfigurationError,
    DEFAULT_INITIAL_SCALE,
    DiagonalHamiltonian,
    DimensionMismatchError,
    HermitianOperator,
    HermiticityError,
    InvalidInitialValuesError,
    Linearization,
    build_final,
    build_initial,
    commutes,
    hadamard_transform,
    scalarize,
)
from moqa.hamiltonians import interpolation_dense

from conftest import dense_driver, make_instance, random_instance


def dense_uniform_projector(dim: int) -> np.ndarray:
    u = np.full(dim, dim**-0.5)
    return np.outer(u, u)


# ---------------------------------------------------------------------------
# final (diagonal) operator


def test_final_diagonal_equals_scalarization(rng):
    inst = random_instance(rng, 3, 2)
    w = Linearization.pair(0.57)
    hw = build_final(inst, w)
    assert np.array_equal(hw.diagonal, scalarize(inst, w))
    assert hw.dim == inst.size


def test_diagonal_rejects_negative_entries():
    with pytest.raises(ConfigurationError):
        DiagonalHamiltonian(np.array([1.0, -0.5]))


def test_diagonal_rejects_nonfinite():
    with pytest.raises(ConfigurationError):
        DiagonalHamiltonian(np.array([1.0, np.inf]))


# ---------------------------------------------------------------------------
# initial (driver) operator


def test_default_driver_one_bit_matrix():
    h0 = build_initial(1)
    expected = np.array([[4.0, -4.0], [-4.0, 4.0]])
    assert np.allclose(h0.dense(), expected, rtol=0, atol=1e-12)


def test_default_driver_matches_projector_formula():
    for n in (1, 2, 3):
        dim = 1 << n
        h0 = build_initial(n)
        expected = DEFAULT_INITIAL_SCALE * (np.eye(dim) - dense_uniform_projector(dim))
        assert np.allclose(h0.dense(), expected, rtol=0, atol=1e-12)


def test_default_driver_spectrum_and_ground_state():
    n = 3
    dim = 1 << n
    h0 = build_initial(n, scale=8.0)
    vals = np.linalg.eigvalsh(h0.dense())
    assert abs(vals[0]) <= 1e-12
    assert np.allclose(vals[1:], 8.0, rtol=0, atol=1e-12)
    uniform = np.full(dim, dim**-0.5)
    assert np.linalg.norm(h0.dense() @ uniform) <= 1e-12


def test_driver_scale_parameter():
    h0 = build_initial(2, scale=3.0)
    vals = np.linalg.eigvalsh(h0.dense())
    assert np.allclose(sorted(vals), [0.0, 3.0, 3.0, 3.0], atol=1e-12)


def test_driver_rejects_nonpositive_scale():
    with pytest.raises(InvalidInitialValuesError):
        build_initial(2, scale=0.0)


@pytest.mark.parametrize("scale", [True, False, "2.0", None, 10**400],
                         ids=["true", "false", "str", "none", "int_1e400"])
def test_driver_rejects_non_real_scale(scale):
    # True would otherwise build a driver of scale 1.0.
    with pytest.raises(InvalidInitialValuesError, match="scale must be positive") as info:
        build_initial(2, scale=scale)
    assert info.value.exit_code == 1


def test_custom_spectrum_requires_zero_first():
    with pytest.raises(InvalidInitialValuesError):
        build_initial(1, h_values=[0.5, 1.0])


def test_custom_spectrum_requires_unit_floor():
    with pytest.raises(InvalidInitialValuesError):
        build_initial(1, h_values=[0.0, 0.5])


def test_default_driver_dense_matches_independent_hadamard():
    for n in (1, 2, 5):
        h0 = build_initial(n, scale=5.0)
        expected = dense_driver(h0.dim, 5.0)
        assert np.allclose(h0.dense(), expected, rtol=0, atol=1e-12)


def test_custom_spectrum_eigenvalues():
    h_values = [0.0, 1.0, 2.0, 4.0]
    h0 = build_initial(2, scale=2.0, h_values=h_values)
    vals = np.sort(np.linalg.eigvalsh(h0.dense()))
    assert np.allclose(vals, [0.0, 2.0, 4.0, 8.0], atol=1e-10)


def test_is_default_flag():
    assert build_initial(2).is_default
    assert not build_initial(2, h_values=[0.0, 1.0, 2.0, 3.0]).is_default


# ---------------------------------------------------------------------------
# Walsh-Hadamard transform


def test_hadamard_one_bit():
    out = hadamard_transform(np.array([1.0, 0.0]))
    r = 2**-0.5
    assert np.allclose(out, [r, r], atol=1e-15)


def test_hadamard_involution(rng):
    for n in (1, 2, 5, 8):
        v = rng.normal(size=1 << n)
        assert np.allclose(hadamard_transform(hadamard_transform(v)), v, atol=1e-12)


def test_hadamard_preserves_norm(rng):
    v = rng.normal(size=64)
    assert abs(np.linalg.norm(hadamard_transform(v)) - np.linalg.norm(v)) <= 1e-12


def test_hadamard_matches_matrix_construction(rng):
    n = 4
    dim = 1 << n
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    mat = np.array([[1.0]])
    for _ in range(n):
        mat = np.kron(mat, h1)
    v = rng.normal(size=dim)
    assert np.allclose(hadamard_transform(v), mat @ v, atol=1e-12)
    # a matrix is transformed column by column
    m = rng.normal(size=(dim, 3))
    assert np.allclose(hadamard_transform(m), mat @ m, atol=1e-12)


def test_hadamard_rejects_bad_length():
    with pytest.raises(DimensionMismatchError):
        hadamard_transform(np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# interpolation


def test_assemble_endpoints(rng):
    inst = random_instance(rng, 2, 2)
    h0 = build_initial(2)
    hw = build_final(inst, Linearization.pair(0.3))
    start = interpolation_dense(h0, hw, 0.0)
    end = interpolation_dense(h0, hw, 1.0)
    assert np.allclose(start, h0.dense(), atol=1e-14)
    assert np.allclose(end, np.diag(hw.diagonal), atol=1e-14)


def test_assemble_midpoint_hand_value():
    h0 = build_initial(1)  # [[4,-4],[-4,4]]
    hw = DiagonalHamiltonian(np.array([0.0, 5.0]))
    mid = interpolation_dense(h0, hw, 0.5)
    assert np.allclose(mid, [[2.0, -2.0], [-2.0, 4.5]], atol=1e-14)
    vals = np.linalg.eigvalsh(mid)
    expected = np.array([3.25 - np.sqrt(1.5625 + 4.0), 3.25 + np.sqrt(1.5625 + 4.0)])
    assert np.allclose(vals, expected, atol=1e-12)


@settings(max_examples=30)
@given(s=st.floats(min_value=0.0, max_value=1.0))
def test_assemble_linear_in_schedule(s):
    rng = np.random.default_rng(7)
    inst = random_instance(rng, 2, 2)
    h0 = build_initial(2)
    hw = build_final(inst, Linearization.pair(0.7))
    mixed = interpolation_dense(h0, hw, s)
    expected = (1.0 - s) * h0.dense() + s * np.diag(hw.diagonal)
    assert np.allclose(mixed, expected, atol=1e-12)


def test_assemble_rejects_out_of_range_schedule(rng):
    inst = random_instance(rng, 1, 2)
    h0 = build_initial(1)
    hw = build_final(inst, Linearization.pair(0.5))
    with pytest.raises(ConfigurationError):
        interpolation_dense(h0, hw, 1.5)


def test_assemble_dimension_mismatch(rng):
    inst = random_instance(rng, 2, 2)
    h0 = build_initial(1)
    hw = build_final(inst, Linearization.pair(0.5))
    with pytest.raises(DimensionMismatchError):
        interpolation_dense(h0, hw, 0.5)


# ---------------------------------------------------------------------------
# Hermitian wrapper


def test_hermitian_accepts_any_dimension():
    mat = np.array([[1.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 3.0]])
    op = HermitianOperator(mat)
    assert op.dim == 3


def test_hermitian_accepts_complex():
    mat = np.array([[1.0, 1j], [-1j, 2.0]])
    op = HermitianOperator(mat)
    assert op.entries.dtype == np.complex128


def test_hermitian_rejects_asymmetric():
    with pytest.raises(HermiticityError):
        HermitianOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_hermitian_rejects_complex_diagonal():
    with pytest.raises(HermiticityError):
        HermitianOperator(np.array([[1j, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# commutator check


def test_commutator_norm_matches_dense_reference(rng):
    inst = random_instance(rng, 2, 2)
    h0 = build_initial(2)
    hw = build_final(inst, Linearization.pair(0.4))
    check = commutes(h0, hw)
    a, b = dense_driver(h0.dim, h0.scale), np.diag(hw.diagonal)
    ref = np.linalg.norm(a @ b - b @ a, 2)
    assert abs(check.norm - ref) <= 1e-10 * max(1.0, ref)
    assert not check.commuting


def test_commutator_norm_finite_on_huge_diagonal(rng):
    # np.std of the raw deviations would square values near 1e200 to inf.
    diag = np.r_[0.0, 1e200, rng.uniform(0.0, 1e200, 14)]
    h0 = build_initial(4)
    a, b = dense_driver(16, h0.scale), np.diag(diag / 1e200)
    ref = 1e200 * np.linalg.norm(a @ b - b @ a, 2)
    norm = commutes(h0, DiagonalHamiltonian(diag)).norm
    assert np.isfinite(norm)
    assert abs(norm - ref) <= 1e-10 * ref


def test_identity_final_commutes():
    h0 = build_initial(2)
    hw = DiagonalHamiltonian(np.full(4, 3.0))
    check = commutes(h0, hw)
    assert check.commuting
    assert check.norm <= 1e-9

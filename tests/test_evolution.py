"""Schedule-evolution tests.

The propagator is compared against an independent reference built from
scipy.linalg.expm products, on a much finer grid or on the same slices,
and the default driver's level-basis run against the dense branch.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from moqa import (
    ConfigurationError,
    DiagonalHamiltonian,
    Linearization,
    NormalizationError,
    NumericalRangeError,
    build_final,
    build_initial,
    evolve,
    initial_ground_state,
    measure,
    write_histogram_csv,
)
from moqa import evolution, rank_one
from moqa.evolution import HISTOGRAM_CSV_HEADER

from conftest import dense_driver, dense_path, make_instance, random_instance


def reference_evolution(h0, hw, total_time, slices):
    """Midpoint product of dense matrix exponentials, built independently."""
    dim = h0.dim
    psi = np.full(dim, dim**-0.5, dtype=np.complex128)
    dt = total_time / slices
    a, b = dense_driver(dim, h0.scale), np.diag(hw.diagonal)
    for k in range(slices):
        s = (k + 0.5) / slices
        psi = expm(-1j * dt * ((1.0 - s) * a + s * b)) @ psi
    return psi


@pytest.fixture
def system(rng):
    inst = random_instance(rng, 2, 2)
    h0 = build_initial(2)
    hw = build_final(inst, Linearization.pair(0.6))
    return h0, hw


def test_initial_ground_state_uniform():
    psi = initial_ground_state(3)
    assert psi.dtype == np.complex128
    assert np.allclose(psi, 2.0**-1.5)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-15


def test_zero_time_echo(system):
    h0, hw = system
    res = evolve(h0, hw, 0.0, steps=16)
    assert np.array_equal(res.final_state, initial_ground_state(2))
    assert res.norm_drift == 0.0


def test_evolution_matches_expm_reference(system):
    h0, hw = system
    t = 30.0
    res = evolve(h0, hw, t, steps=512)
    ref = reference_evolution(h0, hw, t, 5120)
    err = np.linalg.norm(res.final_state - ref)
    assert err <= 1e-3


def test_evolution_second_order_convergence(system):
    h0, hw = system
    t = 30.0
    ref = reference_evolution(h0, hw, t, 8192)
    err_coarse = np.linalg.norm(evolve(h0, hw, t, steps=256).final_state - ref)
    err_fine = np.linalg.norm(evolve(h0, hw, t, steps=512).final_state - ref)
    assert err_fine <= 0.35 * err_coarse


def test_evolution_unitary_drift(system):
    h0, hw = system
    res = evolve(h0, hw, 50.0, steps=2048)
    assert res.norm_drift <= 1e-10
    assert abs(np.linalg.norm(res.final_state) - 1.0) <= 1e-10


def test_evolution_result_fields(system):
    h0, hw = system
    res = evolve(h0, hw, 10.0, steps=64)
    assert res.steps == 64
    assert res.total_time == 10.0
    assert res.target_index == int(np.argmin(hw.diagonal))
    assert 0.0 <= res.ground_fidelity <= 1.0
    assert not res.degenerate_target
    assert res.distribution.shape == (4,)
    assert abs(res.distribution.sum() - 1.0) <= 1e-9


def test_fidelity_is_target_probability(system):
    h0, hw = system
    res = evolve(h0, hw, 25.0, steps=256)
    expected = abs(res.final_state[res.target_index]) ** 2
    assert abs(res.ground_fidelity - expected) <= 1e-12


def test_degenerate_target_flagged():
    h0 = build_initial(1)
    hw = DiagonalHamiltonian(np.array([2.0, 2.0]))
    with pytest.warns(UserWarning):
        res = evolve(h0, hw, 1.0, steps=8)
    assert res.degenerate_target


def test_commuting_problem_warns():
    h0 = build_initial(2)
    hw = DiagonalHamiltonian(np.full(4, 1.5))
    with pytest.warns(UserWarning):
        evolve(h0, hw, 1.0, steps=4)


@pytest.mark.parametrize("steps", [2.5, 0])
def test_rejects_bad_step_count(system, steps):
    h0, hw = system
    with pytest.raises(ConfigurationError):
        evolve(h0, hw, 1.0, steps=steps)


def refuse_slices(monkeypatch):
    def slice_ran(*args):
        raise AssertionError("a schedule slice ran")

    # The default driver runs its slices through rank_one.rank_one_eigh, any
    # other driver through interpolation_dense.
    monkeypatch.setattr(evolution, "interpolation_dense", slice_ran)
    monkeypatch.setattr(rank_one, "rank_one_eigh", slice_ran)


@pytest.mark.parametrize("tol", [np.nan, np.inf, True, "1e-9"])
def test_rejects_non_finite_tie_tolerance_before_the_schedule(system, monkeypatch, tol):
    refuse_slices(monkeypatch)
    h0, hw = system
    with pytest.raises(ConfigurationError):
        evolve(h0, hw, 1.0, steps=4, tie_tol=tol)


@pytest.mark.parametrize("h_values", [None, [0.0, 1.0, 2.0, 3.0]], ids=["default", "nondefault"])
@pytest.mark.parametrize("total_time", [
    True, "1.0", None, -1.0, np.nan, np.inf, pytest.param(10**400, id="int_1e400")
])
def test_rejects_bad_total_time_before_the_schedule(monkeypatch, h_values, total_time):
    # True would otherwise run a T = 1 schedule; an int beyond float range
    # would fail inside numpy with a bare TypeError.
    refuse_slices(monkeypatch)
    h0 = build_initial(2, h_values=h_values)
    hw = DiagonalHamiltonian(np.array([3.0, 1.0, 2.0, 7.0]))
    with pytest.raises(ConfigurationError, match="total_time"):
        evolve(h0, hw, total_time, steps=4)


@pytest.mark.parametrize("h_values", [None, [0.0, 1.0, 2.0, 3.0]], ids=["default", "nondefault"])
@pytest.mark.parametrize("total_time, steps", [(1e308, 1), (1e307, 3)])
def test_overflowing_phases_rejected_before_the_schedule(monkeypatch, h_values, total_time,
                                                         steps):
    refuse_slices(monkeypatch)
    h0 = build_initial(2, h_values=h_values)
    hw = DiagonalHamiltonian(np.array([3.0, 1.0, 2.0, 400.0]))
    with pytest.raises(NumericalRangeError, match="not finite") as info:
        evolve(h0, hw, total_time, steps=steps)
    assert info.value.exit_code == 4


def test_default_driver_evolution_skips_dense_solvers(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense solver ran")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(evolution, "interpolation_dense", refuse)
    h0 = build_initial(5)
    hw = DiagonalHamiltonian(rng.uniform(0.0, 50.0, 32))
    res = evolve(h0, hw, 5.0, steps=16)
    assert res.norm_drift <= 1e-12
    assert abs(res.distribution.sum() - 1.0) <= 1e-12


def test_level_basis_slice_memory_grows_with_k_not_k_squared():
    # Two K x K float64 arrays take 16 MiB at K = 1024; a slice needs none.
    hw = DiagonalHamiltonian(np.random.default_rng(11).uniform(0.0, 600.0, 1024))
    h0 = build_initial(10)
    tracemalloc.start()
    try:
        evolve(h0, hw, 10.0, steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@st.composite
def level_basis_cases(draw):
    """(scale, diagonal, T, steps) on n <= 8 bits with repeated levels."""
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    diag = np.asarray(pool)[np.random.default_rng(seed).integers(0, len(pool), 1 << n)]
    scale = draw(st.sampled_from([0.25, 3.0, 8.0, 1000.0]))
    total_time = draw(st.floats(0.1, 20.0))
    return scale, diag, total_time, draw(st.integers(1, 8))


ULPS = np.nextafter(1.0, 2.0) - 1.0


@settings(max_examples=20, deadline=None)
@given(case=level_basis_cases())
@example(case=(8.0, np.array([0.5, 2.0, 0.5, 7.0, 3.0, 0.5, 3.0, 9.0]), 6.0, 8))  # tied min
@example(case=(3.0, 1.0 + ULPS * np.array([0, 1, 2, 2, 3, 5, 8, 200.0]), 15.0, 8))  # ulps apart
@example(case=(0.25, np.full(16, 4.5), 7.0, 4))  # one level
@example(case=(3.0, np.array([0.0, 5e-324, 1e-310, 2.5]), 9.0, 8))  # subnormal gaps
@example(case=(1000.0, np.array([0.0, 2.0, 1.0, 6.0]), 2.0, 8))
@example(case=(0.25, np.array([3.0, 1.0, 2.0, 2.0 + 4 * ULPS]), 20.0, 8))
# Long enough for warm starts: ulps apart, one level, subnormal gaps.
@example(case=(3.0, 1.0 + ULPS * np.array([0, 1, 2, 2, 3, 5, 8, 200.0]), 15.0, 41))
@example(case=(0.25, np.full(16, 4.5), 7.0, 40))
@example(case=(3.0, np.array([0.0, 5e-324, 1e-310, 2.5]), 9.0, 33))
def test_level_basis_matches_dense_path_and_reference(case):
    scale, diag, total_time, steps = case
    h0 = build_initial(diag.size.bit_length() - 1, scale=scale)
    hw = DiagonalHamiltonian(diag)
    with warnings.catch_warnings():
        # A constant diagonal commutes with the driver.
        warnings.filterwarnings("ignore", "driver and problem Hamiltonians commute")
        res = evolve(h0, hw, total_time, steps=steps)
        dense = dense_path(h0, hw, total_time, steps)
    ref = reference_evolution(h0, hw, total_time, steps)
    assert np.max(np.abs(res.final_state - dense.final_state)) <= 1e-9
    assert np.max(np.abs(res.final_state - ref)) <= 1e-9
    assert np.max(np.abs(res.distribution - dense.distribution)) <= 1e-9
    assert res.norm_drift <= 1e-12
    assert (res.ground_fidelity is None) == (dense.ground_fidelity is None)
    if res.ground_fidelity is not None:
        assert abs(res.ground_fidelity - dense.ground_fidelity) <= 1e-9


@pytest.mark.parametrize("tied", [False, True], ids=["unique_min", "tied_min"])
@pytest.mark.parametrize("steps", [4, 76])
def test_warm_started_schedule_matches_dense_path(monkeypatch, tied, steps):
    # 76 slices start warm from anchors at 0, 8, ..., 72 and 75, so the
    # last stretch between anchors is shorter than the others; 4 slices
    # are all solved from the bracket midpoints, in one call.
    warm = steps >= rank_one.WARM_MIN_STEPS
    assert warm == (steps == 76)
    guessed, kernel = [], rank_one.rank_one_eigh

    def spy(levels, weights, couplings, guess=None, fit=None):
        guessed.append(guess is not None)
        return kernel(levels, weights, couplings, guess, fit)

    monkeypatch.setattr(rank_one, "rank_one_eigh", spy)
    diag = np.random.default_rng(11).uniform(0.0, 9.0, 32)
    if tied:
        diag[np.argsort(diag)[1]] = diag.min()
    h0, hw = build_initial(5), DiagonalHamiltonian(diag)
    res = evolve(h0, hw, 30.0, steps=steps)
    assert guessed == [False, True][: 1 + warm]
    dense = dense_path(h0, hw, 30.0, steps)
    assert np.max(np.abs(res.final_state - dense.final_state)) <= 1e-9
    assert np.max(np.abs(res.distribution - dense.distribution)) <= 1e-9


def test_slow_evolution_reaches_ground_state():
    # a gentle 2-bit landscape evolved slowly should settle on the minimum
    inst = make_instance([[0.0, 0.4], [1.0, 1.2], [2.0, 0.9], [2.5, 2.5]])
    hw = build_final(inst, Linearization.pair(0.5))
    h0 = build_initial(2)
    res = evolve(h0, hw, 300.0, steps=4096)
    assert res.ground_fidelity >= 0.9


# ---------------------------------------------------------------------------
# measurement


def test_measure_seeded_determinism():
    state = initial_ground_state(3)  # uniform: every outcome equally likely
    a = measure(state, 500, seed=42)
    b = measure(state, 500, seed=42)
    c = measure(state, 500, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_measure_counts_sum_to_shots(system):
    h0, hw = system
    res = evolve(h0, hw, 20.0, steps=128)
    counts = measure(res.final_state, 337, seed=0)
    assert counts.sum() == 337
    assert counts.shape == (4,)
    assert np.all(counts >= 0)


def test_measure_tracks_probabilities():
    state = np.array([np.sqrt(0.9), 0.0, 0.0, np.sqrt(0.1)], dtype=np.complex128)
    counts = measure(state, 20000, seed=7)
    freq = counts / counts.sum()
    assert abs(freq[0] - 0.9) <= 0.02
    assert counts[1] == 0 and counts[2] == 0


def test_measure_rejects_negative_seed():
    with pytest.raises(ConfigurationError):
        measure(initial_ground_state(2), 5, seed=-1)


def test_measure_rejects_nan_state():
    # A NaN norm is refused here, not passed on to rng.choice.
    state = initial_ground_state(2)
    state[1] = np.nan
    with pytest.raises(NormalizationError) as info:
        measure(state, 5, seed=0)
    assert info.value.exit_code == 4


def test_histogram_csv_format(tmp_path):
    counts = np.array([2, 0, 1, 1], dtype=np.int64)
    path = tmp_path / "hist.csv"
    write_histogram_csv(counts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == HISTOGRAM_CSV_HEADER == "x,count,probability"
    assert lines[1] == "0,2,0.5"
    assert lines[2] == "1,0,0.0"
    assert len(lines) == 5

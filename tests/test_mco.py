"""Core model tests: fronts, linearizations, validation, I/O.

Every structural claim is checked against a small independent oracle
written with plain loops (or an LP), never against the library's own
vectorized code paths.
"""

import json

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

from conftest import make_instance, random_instance


# ---------------------------------------------------------------------------
# independent oracles


def oracle_dominates(u, v) -> bool:
    """u strictly dominates v: componentwise <= with at least one <."""
    le = all(a <= b for a, b in zip(u, v))
    lt = any(a < b for a, b in zip(u, v))
    return le and lt


def oracle_front(values) -> set[int]:
    """Brute-force double loop Pareto front."""
    size = len(values)
    front = set()
    for x in range(size):
        dominated = False
        for y in range(size):
            if y != x and oracle_dominates(values[y], values[x]):
                dominated = True
                break
        if not dominated:
            front.add(x)
    return front


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
    path.write_text("x,f1,f2\n1,1.0,2.0\n0,2.0,1.0\n")
    with pytest.raises(InstanceFormatError):
        read_instance(path)


def test_read_rejects_duplicate_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,f1,f2\n0,1.0,2.0\n0,2.0,1.0\n")
    with pytest.raises(InstanceFormatError):
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

"""Acceptance suite.

Seven end-to-end checks the package must satisfy, each emitting one
PASS/FAIL line.  Random draws are seeded, oracles are brute-force loops
written here or in conftest.py, and stated tolerances and time budgets are
asserted.
"""

import sys
import time

import numpy as np

import pytest
import scipy.linalg

from moqa import (
    Linearization,
    TwoParabolasParams,
    UnresolvableDegeneracyError,
    builtin_instance,
    build_final,
    build_initial,
    delta_max,
    end_gap_diagnostics,
    evolve,
    gap_scan,
    generate,
    hadamard_transform,
    pareto_front,
    resolve,
    runtime_estimate,
    scalarize,
    smallest_two,
    supported_solutions,
    trivial_solutions,
    validate,
)
from moqa import HermitianOperator, McoInstance

from conftest import oracle_front


def announce(criterion: int, name: str, ok: bool, elapsed: float | None = None) -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = "" if elapsed is None else f" ({elapsed:.2f} s)"
    print(f"ACCEPTANCE {criterion} {name}: {verdict}{suffix}")
    sys.stdout.flush()


# ---------------------------------------------------------------------------


def test_criterion_1_builtin_validation_and_front():
    start = time.perf_counter()
    inst = builtin_instance()
    report = validate(inst)
    front = pareto_front(inst)
    front_labels = [inst.label(x) for x in front]
    trivial_labels = [inst.label(x) for x in trivial_solutions(inst)]
    elapsed = time.perf_counter() - start

    checks = {
        "well_formed": report.well_formed,
        "normal": report.normal,
        "collision_free": bool(report.collision_free),
        "front_is_41_contiguous": front_labels == list(range(40, 81)),
        "trivial_labels": trivial_labels == [40, 80],
        "runtime_under_1s": elapsed < 1.0,
    }
    ok = all(checks.values())
    announce(1, "builtin validation and front", ok, elapsed)
    assert ok, checks


def test_criterion_2_gap_scan_on_builtin():
    start = time.perf_counter()
    inst = builtin_instance()
    w = Linearization((0.57, 0.43))
    h0 = build_initial(inst.n, scale=8.0)
    hw = build_final(inst, w)
    curve = gap_scan(h0, hw, points=512)

    final = np.diag(hw.diagonal)
    ground = smallest_two(HermitianOperator(final))[0]
    minimizer = int(np.argmin(hw.diagonal))
    amplitude = abs(ground.vector[minimizer])
    elapsed = time.perf_counter() - start

    checks = {
        "start_gap_is_8": abs(curve.gap[0] - 8.0) <= 1e-9,
        "gap_positive_everywhere": bool(np.all(curve.gap > 0.0)),
        "end_gap_value": abs(curve.gap[-1] - 0.00837) <= 1e-5,
        "end_minimizer_is_label_59": inst.label(minimizer) == 59,
        "end_ground_state_concentrated": amplitude > 0.999,
        "runtime_under_2min": elapsed < 120.0,
    }
    ok = all(checks.values())
    announce(2, "schedule gap scan on the bundled table", ok, elapsed)
    assert ok, checks


def test_criterion_3_weighted_separation_reports():
    inst = builtin_instance()
    trivials = set(trivial_solutions(inst))
    rng = np.random.default_rng(3)

    held = []
    tried = 0
    while len(held) < 50 and tried < 5000:
        tried += 1
        w1 = float(rng.uniform(0.01, 0.99))
        w = Linearization.pair(w1)
        minimizer = int(np.argmin(scalarize(inst, w)))
        if minimizer in trivials:
            continue
        diag = end_gap_diagnostics(inst, w)
        held.append(diag.min_exceeds_weighted_separation is True)

    reference = end_gap_diagnostics(inst, Linearization((0.57, 0.43)))

    checks = {
        "fifty_cases_sampled": len(held) == 50,
        "minimum_exceeds_weighted_separation_each_time": all(held),
        "end_gap_below_weighted_separation_is_reported": (
            reference.end_gap_meets_weighted_separation is False
        ),
    }
    ok = all(checks.values())
    announce(3, "weighted separation bounds", ok)
    assert ok, checks


def test_criterion_4_scalarization_argmin_always_pareto():
    rng = np.random.default_rng(4)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(2, 5))
        values = rng.uniform(0.0, 10.0, size=(1 << n, d))
        inst = McoInstance(values)
        front = oracle_front(values.tolist())
        for _ in range(20):
            weights = rng.dirichlet(np.ones(d))
            if np.any(weights >= 1.0) or np.any(weights < 0.0):
                continue
            w = Linearization(weights)
            winner = int(np.argmin(scalarize(inst, w)))
            if winner not in front:
                violations += 1
    ok = violations == 0
    announce(4, "scalarization argmin stays on the front", ok)
    assert ok, f"{violations} violations"


def test_criterion_5_degeneracy_resolution_certificates():
    rng = np.random.default_rng(5)
    violations = []
    done = 0
    while done < 100:
        a1 = float(rng.uniform(1.0, 5.0))
        b2 = float(rng.uniform(1.0, 5.0))
        w1 = b2 / (a1 + b2)
        rows = [[a1, 0.0], [0.0, b2]]
        top = max(a1, b2)
        for _ in range(6):
            rows.append(
                [top + float(rng.uniform(1.0, 4.0)), top + float(rng.uniform(1.0, 4.0))]
            )
        perm = rng.permutation(8)
        values = np.asarray(rows, dtype=np.float64)[perm]
        inst = McoInstance(values, lam=np.array([0.05, 0.05]))
        w = Linearization.pair(w1)

        scal = scalarize(inst, w)
        order = np.sort(scal)
        if order[1] - order[0] > 1e-12:
            continue  # float rounding failed to realize the tie
        done += 1

        cert = resolve(inst, w)
        front = oracle_front(values.tolist())
        resolved = Linearization(cert.resolved_weights)
        after = scalarize(inst, resolved)
        ranked = np.sort(after)

        if cert.l1_distance > cert.radius + 1e-15:
            violations.append(("radius", done))
        if cert.chosen_index not in cert.tied_indices:
            violations.append(("membership", done))
        if int(np.argmin(after)) != cert.chosen_index:
            violations.append(("argmin", done))
        if ranked[1] - ranked[0] <= 1e-9:
            violations.append(("uniqueness", done))
        if cert.chosen_index not in front:
            violations.append(("pareto", done))

    twins = McoInstance(
        np.array([[1.0, 1.0], [4.0, 3.0], [1.0, 1.0], [5.0, 6.0]]),
        lam=np.array([0.05, 0.05]),
    )
    with pytest.raises(UnresolvableDegeneracyError):
        resolve(twins, Linearization.pair(0.5))

    ok = not violations and done == 100
    announce(5, "degeneracy resolution certificates", ok)
    assert ok, violations


def test_criterion_6_adiabatic_evolution_reaches_ground_state():
    start = time.perf_counter()
    params = TwoParabolasParams(
        n=4,
        x0=4,
        x0p=11,
        curvature1=(1.0, 2.0),
        curvature2=(1.5, 3.0),
        lam=(0.5, 0.75),
        seed=1,
    )
    inst = generate(params)
    w = Linearization.pair(0.5)
    h0 = build_initial(inst.n, scale=8.0)
    hw = build_final(inst, w)

    curve = gap_scan(h0, hw, points=512)
    dmax = delta_max(h0, hw)
    total_time = 10.0 * dmax / curve.g_min**2

    at_t = evolve(h0, hw, total_time, steps=4096)
    at_2t = evolve(h0, hw, 2.0 * total_time, steps=4096)
    elapsed = time.perf_counter() - start

    checks = {
        "instance_validates": validate(inst).all_pass,
        "g_min_at_least_half": curve.g_min >= 0.5,
        "fidelity_at_t": at_t.ground_fidelity >= 0.9,
        "fidelity_stable_at_2t": at_2t.ground_fidelity >= at_t.ground_fidelity - 0.05,
        "norm_drift_t": at_t.norm_drift <= 1e-6,
        "norm_drift_2t": at_2t.norm_drift <= 1e-6,
        "runtime_under_5min": elapsed < 300.0,
    }
    ok = all(checks.values())
    announce(6, "adiabatic evolution fidelity", ok, elapsed)
    assert ok, checks


def test_criterion_7_numerical_contracts():
    rng = np.random.default_rng(7)

    eig_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 65))
        mat = rng.normal(size=(dim, dim))
        if rng.integers(0, 2):
            mat = mat + 1j * rng.normal(size=(dim, dim))
        mat = (mat + mat.conj().T) / 2.0
        low = smallest_two(HermitianOperator(mat))
        # scipy's LAPACK, not the numpy.linalg that smallest_two runs.
        ref = scipy.linalg.eigvalsh(mat)[:2]
        if abs(low[0].value - ref[0]) > 1e-8 or abs(low[1].value - ref[1]) > 1e-8:
            eig_ok = False

    fwht_ok = True
    for n in (1, 4, 7, 10):
        v = rng.normal(size=1 << n)
        back = hadamard_transform(hadamard_transform(v))
        if np.max(np.abs(back - v)) > 1e-12:
            fwht_ok = False

    est = runtime_estimate(1.0, 1.0, delta=0.1, gap_floor=1.0)
    calculator_ok = abs(est.t_rigorous - 1e7) <= 1e7 * 1e-12

    checks = {
        "smallest_two_matches_oracle": eig_ok,
        "hadamard_involution": fwht_ok,
        "runtime_calculator_reference_point": calculator_ok,
    }
    ok = all(checks.values())
    announce(7, "numerical contracts", ok)
    assert ok, checks

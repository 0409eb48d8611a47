"""Tie-splitting tests: radius arithmetic, certificates, failure modes."""

import numpy as np
import pytest

from moqa import (
    Linearization,
    McoInstance,
    ResolutionFailureError,
    UnresolvableDegeneracyError,
    build_final,
    degeneracy_check,
    l1_radius,
    pareto_front,
    resolve,
    scalarize,
)

from conftest import make_instance


# rows 1 and 3 tie exactly at equal weights; row 0 and row 2 stay above
TIE_VALUES = [[0.0, 5.0], [1.0, 3.0], [4.2, 0.0], [2.0, 2.0]]
TIE_LAM = [1.0, 1.0]


# at equal weights rows 0 and 1 score 5.0 and 5.0 + 1e-7: tied only under a
# tolerance wider than 1e-7
NEAR_TIE_VALUES = [[0.0, 10.0], [10.0 + 2e-7, 0.0], [20.0, 20.0], [30.0, 30.0]]


def tie_instance() -> McoInstance:
    return make_instance(TIE_VALUES, lam=TIE_LAM)


def test_radius_formula():
    inst = tie_instance()
    w = Linearization.pair(0.5)
    # <lam, w> = 1.0, largest objective value m = 5.0, d = 2
    assert abs(l1_radius(inst, w) - 1.0 / (5.0 * 2.0)) <= 1e-15


def test_radius_lambda_override():
    inst = tie_instance()
    w = Linearization.pair(0.5)
    assert abs(l1_radius(inst.with_lambda([2.0, 2.0]), w) - 2.0 / 10.0) <= 1e-15


def test_resolve_identity_when_unique():
    inst = tie_instance()
    w = Linearization.pair(0.25)  # scalars: 3.75, 2.5, 1.05, 2.0 -> unique
    cert = resolve(inst, w)
    assert cert.resolved_weights == w.as_tuple()
    assert cert.l1_distance == 0.0
    assert cert.tied_indices == (cert.chosen_index,)


def test_resolve_splits_even_tie():
    inst = tie_instance()
    w = Linearization.pair(0.5)  # scalars: 2.5, 2.0, 2.1, 2.0 -> tie {1, 3}
    cert = resolve(inst, w)
    assert cert.tied_indices == (1, 3)
    assert cert.chosen_index in {1, 3}
    assert cert.l1_distance <= cert.radius + 1e-15
    resolved = Linearization(cert.resolved_weights)
    scal = scalarize(inst, resolved)
    winner = int(np.argmin(scal))
    assert winner == cert.chosen_index
    gaps = np.sort(scal)
    assert gaps[1] - gaps[0] > 1e-9  # strictly unique after the nudge


def test_resolve_tie_tol_decides_the_tied_set():
    inst = make_instance(NEAR_TIE_VALUES, lam=TIE_LAM)
    w = Linearization.pair(0.5)
    narrow = resolve(inst, w)
    assert (narrow.tied_indices, narrow.chosen_index) == ((0,), 0)
    assert (narrow.resolved_weights, narrow.l1_distance) == (w.as_tuple(), 0.0)
    cert = resolve(inst, w, tie_tol=1e-6)
    assert cert.tied_indices == (0, 1)
    resolved = Linearization(np.array(cert.resolved_weights))
    report = degeneracy_check(build_final(inst, resolved), 1e-6)
    assert report.witnesses == (cert.chosen_index,)
    assert 0.0 < cert.l1_distance <= cert.radius


def test_resolve_deterministic():
    inst = tie_instance()
    w = Linearization.pair(0.5)
    a = resolve(inst, w)
    b = resolve(inst, w)
    assert a.resolved_weights == b.resolved_weights
    assert a.chosen_index == b.chosen_index


def test_resolve_chosen_is_pareto_optimal():
    inst = tie_instance()
    cert = resolve(inst, Linearization.pair(0.5))
    assert cert.chosen_index in set(pareto_front(inst))


def test_resolve_certificate_records_radius_inputs():
    inst = tie_instance()
    w = Linearization.pair(0.5)
    cert = resolve(inst, w)
    assert cert.original_weights == w.as_tuple()
    assert cert.m_value == 5.0
    assert abs(cert.radius - l1_radius(inst, w)) <= 1e-15


def test_resolve_equivalent_rows_unresolvable():
    # rows 1 and 3 carry identical objective vectors
    inst = make_instance([[0.0, 5.0], [2.0, 2.0], [4.5, 0.0], [2.0, 2.0]], lam=TIE_LAM)
    with pytest.raises(UnresolvableDegeneracyError):
        resolve(inst, Linearization.pair(0.5))


def test_resolve_fails_when_radius_too_small():
    # tiny separations shrink the permitted nudge below anything that
    # could separate the tied pair beyond the tie tolerance
    inst = tie_instance().with_lambda([1e-12, 1e-12])
    with pytest.raises(ResolutionFailureError) as err:
        resolve(inst, Linearization.pair(0.5))
    assert err.value.tried  # the attempts are reported


def test_resolve_three_way_tie():
    # rows 0, 1, 2 all scalarize to 2.0 at equal weights
    inst = make_instance(
        [[0.0, 4.0], [1.5, 2.5], [4.0, 0.0], [3.0, 3.0]], lam=[0.5, 0.5]
    )
    w = Linearization.pair(0.5)
    scal = scalarize(inst, w)
    assert np.allclose(np.sort(scal)[:3], 2.0)
    cert = resolve(inst, w)
    assert cert.tied_indices == (0, 1, 2)
    assert cert.chosen_index in {0, 1, 2}
    resolved = Linearization(cert.resolved_weights)
    assert int(np.argmin(scalarize(inst, resolved))) == cert.chosen_index


def test_engineered_ties_all_certify(rng):
    """Random two-row ties built from an exact witness weight."""
    done = 0
    while done < 25:
        a1 = float(rng.uniform(1.0, 5.0))
        b2 = float(rng.uniform(1.0, 5.0))
        # rows (a1, 0) and (0, b2) tie at w1 = b2 / (a1 + b2)
        w1 = b2 / (a1 + b2)
        filler1 = [a1 + 2.0, b2 + float(rng.uniform(1.0, 3.0))]
        filler2 = [a1 + 3.0, b2 + float(rng.uniform(1.0, 3.0))]
        inst = make_instance(
            [[a1, 0.0], [0.0, b2], filler1, filler2], lam=[0.05, 0.05]
        )
        w = Linearization.pair(w1)
        scal = scalarize(inst, w)
        order = np.sort(scal)
        if order[1] - order[0] > 1e-12:  # float rounding broke the tie
            continue
        cert = resolve(inst, w)
        assert set(cert.tied_indices) >= {0, 1}
        assert cert.chosen_index in cert.tied_indices
        assert cert.l1_distance <= cert.radius + 1e-15
        done += 1

"""Bundled instance and generator tests."""

import numpy as np
import pytest

from moqa import (
    BUILTIN_LAMBDA,
    BUILTIN_X0,
    BUILTIN_X0P,
    ConfigurationError,
    GenerationError,
    TwoParabolasParams,
    builtin_instance,
    generate,
    pareto_front,
    trivial_solutions,
    validate,
    verify_two_parabolas,
)
from moqa.two_parabolas import BUILTIN_SHA256, BUILTIN_TABLE, _table_digest


# ---------------------------------------------------------------------------
# bundled table


def test_builtin_shape_and_metadata():
    inst = builtin_instance()
    assert (inst.n, inst.d, inst.size) == (7, 2, 128)
    assert tuple(inst.lam) == BUILTIN_LAMBDA == (0.2, 0.4)
    assert inst.label_offset == 1
    assert inst.label(0) == 1 and inst.label(127) == 128


def test_builtin_checksum_stable():
    assert _table_digest(BUILTIN_TABLE) == BUILTIN_SHA256
    a = builtin_instance()
    b = builtin_instance()
    assert np.array_equal(a.values, b.values)


def test_builtin_spot_rows():
    inst = builtin_instance()
    assert tuple(inst.values[0]) == (36.14, 214.879)
    assert tuple(inst.values[39]) == (0.0, 46.139)
    assert tuple(inst.values[58]) == (10.47, 15.91)
    assert tuple(inst.values[59]) == (11.27, 14.869)
    assert tuple(inst.values[79]) == (38.54, 0.0)
    assert tuple(inst.values[127]) == (266.644, 67.423)


def test_builtin_objective_zeros_at_named_vertices():
    inst = builtin_instance()
    assert inst.values[BUILTIN_X0, 0] == 0.0
    assert inst.values[BUILTIN_X0P, 1] == 0.0
    assert int(np.argmin(inst.values[:, 0])) == BUILTIN_X0 == 39
    assert int(np.argmin(inst.values[:, 1])) == BUILTIN_X0P == 79


def test_builtin_validates_with_adjacent_scope():
    report = validate(builtin_instance())
    assert report.well_formed
    assert report.normal
    assert report.collision_free
    assert report.all_pass


def test_builtin_fails_all_pairs_scope():
    """Documented data property: non-neighbor value pairs may sit closer
    than the separation vector, so the stricter scope reports a witness."""
    report = validate(builtin_instance(), collision_scope="all")
    assert report.collision_free is False
    assert report.collision_witness is not None


def test_builtin_front_is_contiguous_between_vertices():
    inst = builtin_instance()
    front = pareto_front(inst)
    assert front == tuple(range(39, 80))
    assert len(front) == 41
    assert trivial_solutions(inst) == (39, 79)


def test_builtin_shape_check_passes():
    report = verify_two_parabolas(builtin_instance(), BUILTIN_X0, BUILTIN_X0P)
    assert report.ok
    assert report.violations == ()


# ---------------------------------------------------------------------------
# generator

PARAMS = TwoParabolasParams(
    n=4,
    x0=4,
    x0p=11,
    curvature1=(1.0, 2.0),
    curvature2=(1.5, 3.0),
    lam=(0.5, 0.75),
    seed=7,
)


def test_generate_deterministic_per_seed():
    a = generate(PARAMS)
    b = generate(PARAMS)
    assert np.array_equal(a.values, b.values)


def test_generate_seeds_differ():
    import dataclasses

    a = generate(PARAMS)
    b = generate(dataclasses.replace(PARAMS, seed=8))
    assert not np.array_equal(a.values, b.values)


def test_generate_validates_and_has_expected_vertices():
    inst = generate(PARAMS)
    assert inst.size == 16
    report = validate(inst)
    assert report.all_pass
    assert trivial_solutions(inst) == (PARAMS.x0, PARAMS.x0p)
    assert inst.values[PARAMS.x0, 0] == 0.0
    assert inst.values[PARAMS.x0p, 1] == 0.0


def test_generate_shape_check_passes():
    inst = generate(PARAMS)
    report = verify_two_parabolas(inst, PARAMS.x0, PARAMS.x0p)
    assert report.ok


def test_generate_all_pairs_separated():
    inst = generate(PARAMS)
    for i, lam_i in enumerate(PARAMS.lam):
        diffs = np.diff(np.sort(inst.values[:, i]))
        assert np.all(diffs > lam_i)


def test_generate_front_spans_vertex_range():
    inst = generate(PARAMS)
    front = pareto_front(inst)
    assert front == tuple(range(PARAMS.x0, PARAMS.x0p + 1))


def test_params_reject_bad_vertex_order():
    with pytest.raises(ConfigurationError):
        TwoParabolasParams(n=4, x0=11, x0p=4)
    with pytest.raises(ConfigurationError):
        TwoParabolasParams(n=4, x0=5, x0p=6)  # must differ by more than 1


def test_params_reject_vertex_out_of_range():
    with pytest.raises(ConfigurationError):
        TwoParabolasParams(n=2, x0=1, x0p=9)


def test_params_reject_separation_infeasible_curvature():
    with pytest.raises(ConfigurationError):
        TwoParabolasParams(
            n=4, x0=4, x0p=11, curvature1=(0.3, 2.0), lam=(0.5, 0.75)
        )


def test_params_reject_bad_jitter():
    with pytest.raises(ConfigurationError):
        TwoParabolasParams(n=4, x0=4, x0p=11, jitter=0.7)


@pytest.mark.parametrize("bad", [
    pytest.param({"lam": (np.nan, 0.3)}, id="lam_nan"),
    pytest.param({"lam": (0.2,)}, id="lam_short"),
    pytest.param({"curvature1": (0.4, np.nan)}, id="curvature_nan"),
    pytest.param({"curvature1": (0.4, np.inf)}, id="curvature_inf"),
])
def test_params_reject_malformed_separation_or_curvature(bad):
    # Rejected up front, not after every jitter draw has failed.
    with pytest.raises(ConfigurationError):
        TwoParabolasParams(n=4, x0=4, x0p=11, **bad)


def test_generate_exhausts_retries():
    """Mirrored curvature with zero jitter collides the two branches of
    each parabola exactly, so every draw fails the all-pairs check."""
    params = TwoParabolasParams(
        n=4,
        x0=4,
        x0p=11,
        curvature1=(2.0, 2.0),
        curvature2=(2.0, 2.0),
        lam=(0.5, 0.75),
        jitter=0.0,
        seed=0,
    )
    with pytest.raises(GenerationError):
        generate(params)


def test_shape_check_reports_tampered_row():
    inst = generate(PARAMS)
    values = inst.values.copy()
    values[2, 0] = values[1, 0]  # break strict descent on the head segment
    from conftest import make_instance

    tampered = make_instance(values, lam=PARAMS.lam)
    report = verify_two_parabolas(tampered, PARAMS.x0, PARAMS.x0p)
    assert not report.ok
    segments = {v[0] for v in report.violations}
    assert "head" in segments

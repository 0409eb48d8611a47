"""Bundled instance and generator tests."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from moqa import two_parabolas
from moqa.two_parabolas import BUILTIN_SHA256, BUILTIN_TABLE, _table_digest

from conftest import make_instance


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


@pytest.mark.parametrize("bad", [
    pytest.param({"n": 4.0}, id="n_float"),
    pytest.param({"n": 2.5, "x0": 0, "x0p": 2}, id="n_fractional"),  # was a bare TypeError
    pytest.param({"n": True}, id="n_bool"),
    pytest.param({"x0": 4.0}, id="x0_float"),
    pytest.param({"x0": True}, id="x0_bool"),
    pytest.param({"x0p": 11.5}, id="x0p_float"),
    pytest.param({"x0p": np.float64(11.0)}, id="x0p_numpy_float"),
    pytest.param({"x0": 0, "x0p": True}, id="x0p_bool"),
])
def test_params_reject_non_integer_sizes(bad):
    with pytest.raises(ConfigurationError, match="must be an integer"):
        TwoParabolasParams(**{"n": 4, "x0": 4, "x0p": 11, **bad})


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
def test_params_reject_bad_seed(seed):
    # a negative seed used to pass here and fail inside numpy in generate
    with pytest.raises(ConfigurationError, match="seed"):
        TwoParabolasParams(n=4, x0=4, x0p=11, seed=seed)


def test_params_accept_numpy_integers():
    params = TwoParabolasParams(n=np.int64(4), x0=np.int32(4), x0p=np.uint8(11), seed=np.int64(7))
    plain = TwoParabolasParams(n=4, x0=4, x0p=11, seed=7)
    assert generate(params).values.tobytes() == generate(plain).values.tobytes()


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
    tampered = make_instance(values, lam=PARAMS.lam)
    report = verify_two_parabolas(tampered, PARAMS.x0, PARAMS.x0p)
    assert not report.ok
    segments = {v[0] for v in report.violations}
    assert "head" in segments


# ---------------------------------------------------------------------------
# generator golden: values pinned bit for bit

FAMILY_GOLDEN = Path(__file__).resolve().parent / "golden" / "generate_family.json"


def _family_outcomes():
    sha, failed = {}, []
    for n in range(3, 13):
        size = 1 << n
        for seed in range(10):
            params = TwoParabolasParams(n=n, x0=size // 3, x0p=2 * size // 3, seed=seed)
            try:
                values = generate(params).values
            except GenerationError:
                failed.append([n, seed])
            else:
                sha[f"{n}/{seed}"] = hashlib.sha256(values.tobytes()).hexdigest()
    return sha, failed


def test_generate_matches_family_golden():
    golden = json.loads(FAMILY_GOLDEN.read_text())
    sha, failed = _family_outcomes()
    assert failed == golden["generation_error"]
    assert sha == golden["sha256"]


def test_family_golden_covers_a_retried_draw(monkeypatch):
    """n = 3, seed 1 is in the golden, but only its second draw passes."""
    params = TwoParabolasParams(n=3, x0=2, x0p=5, seed=1)
    assert "3/1" in json.loads(FAMILY_GOLDEN.read_text())["sha256"]
    monkeypatch.setattr(two_parabolas, "MAX_RETRIES", 1)
    with pytest.raises(GenerationError):
        generate(params)
    monkeypatch.setattr(two_parabolas, "MAX_RETRIES", 2)
    generate(params)


# ---------------------------------------------------------------------------
# shape check against the per-index scan it replaced


def reference_shape_check(values, x0, x0p):
    """(ok, violations) from one comparison per adjacent index pair."""
    bad = []

    def scan(segment, lo, hi, obj, increasing):
        for x in range(lo, hi):
            a, b = float(values[x, obj]), float(values[x + 1, obj])
            if (b <= a) if increasing else (b >= a):
                bad.append((segment, obj, x, x + 1, a, b))

    size = len(values)
    scan("head", 0, x0, 0, increasing=False)
    scan("head", 0, x0, 1, increasing=False)
    scan("tail", x0p, size - 1, 0, increasing=True)
    scan("tail", x0p, size - 1, 1, increasing=True)
    scan("middle", x0 + 1, x0p - 1, 0, increasing=True)
    scan("middle", x0 + 1, x0p - 1, 1, increasing=False)
    return not bad, tuple(bad)


def _tampered_tables(rng, count):
    """Bundled and generated tables with a few entries overwritten by
    copies of other entries (ties) or fresh draws, and random vertices
    that include an empty middle segment and both domain ends."""
    sources = [builtin_instance().values, generate(PARAMS).values]
    for t in range(count):
        values = sources[t % 2].copy()
        size = len(values)
        k = int(rng.integers(0, 5))
        rows, objs = rng.integers(0, size, k), rng.integers(0, 2, k)
        if t % 3:
            values[rows, objs] = values[rng.integers(0, size, k), objs]
        else:
            values[rows, objs] = rng.uniform(0.0, values.max(), k)
        x0 = int(rng.integers(0, size - 2))
        x0p = [x0 + 2, size - 1, int(rng.integers(x0 + 1, size))][t % 3]
        if t % 5 == 0:
            x0 = 0
        yield values, x0, x0p


def test_shape_check_matches_reference_scan():
    rng = np.random.default_rng(11)
    for values, x0, x0p in _tampered_tables(rng, 400):
        report = verify_two_parabolas(make_instance(values), x0, x0p)
        ok, violations = reference_shape_check(values, x0, x0p)
        assert report.ok == ok
        # repr also pins the element types: Python ints and floats
        assert repr(report.violations) == repr(violations)


@pytest.mark.parametrize("x0, x0p", [(0, 2), (0, 127), (125, 127), (39, 41), (39, 40)])
def test_shape_check_vertex_edges_match_reference_scan(x0, x0p):
    values = builtin_instance().values.copy()
    values[[0, 1, 40, 126, 127], [0, 1, 0, 1, 0]] = values[[1, 0, 41, 127, 126], [0, 1, 0, 1, 0]]
    report = verify_two_parabolas(make_instance(values), x0, x0p)
    ok, violations = reference_shape_check(values, x0, x0p)
    assert not ok
    assert (report.ok, repr(report.violations)) == (ok, repr(violations))


# ---------------------------------------------------------------------------
# generator properties


@st.composite
def generator_params(draw):
    n = draw(st.integers(2, 8))
    size = 1 << n
    x0 = draw(st.integers(0, size - 3))
    x0p = draw(st.integers(x0 + 2, size - 1))
    jitter = draw(st.floats(0.0, 0.5, exclude_max=True))
    lam = tuple(draw(st.floats(0.05, 1.0)) for _ in range(2))

    def curvature(lam_i):
        base = lam_i / (1.0 - jitter)
        return tuple(base * draw(st.floats(1.01, 4.0)) for _ in range(2))

    return TwoParabolasParams(
        n=n, x0=x0, x0p=x0p, curvature1=curvature(lam[0]), curvature2=curvature(lam[1]),
        lam=lam, jitter=jitter, seed=draw(st.integers(0, 2**32)),
    )


def assert_jittered_parabola(vals, vertex, curv, jitter):
    """vals[vertex] == 0, and step k outward from the vertex lies within
    curv * (2k - 1) * (1 +- jitter), up to the rounding of the sums."""
    assert vals[vertex] == 0.0
    for side, c, outward in ((-1, curv[0], vals[vertex::-1]), (1, curv[1], vals[vertex:])):
        steps = np.diff(outward)
        base = c * (2 * np.arange(1, len(steps) + 1) - 1)
        slack = 8 * np.finfo(float).eps * outward[1:]
        assert np.all(steps >= base * (1.0 - jitter) - slack), side
        assert np.all(steps <= base * (1.0 + jitter) + slack), side


@settings(max_examples=60, deadline=None)
@given(params=generator_params())
def test_generator_jitter_bounds_and_separation(params):
    size = 1 << params.n
    rng = np.random.default_rng(params.seed)
    for vertex, curv in ((params.x0, params.curvature1), (params.x0p, params.curvature2)):
        vals = two_parabolas._branch_values(size, vertex, *curv, params.jitter, rng)
        assert_jittered_parabola(vals, vertex, curv, params.jitter)
    try:
        inst = generate(params)
    except GenerationError:
        return
    assert_jittered_parabola(inst.values[:, 0], params.x0, params.curvature1, params.jitter)
    assert_jittered_parabola(inst.values[:, 1], params.x0p, params.curvature2, params.jitter)
    assert validate(inst, collision_scope="all").collision_free
    assert verify_two_parabolas(inst, params.x0, params.x0p).ok

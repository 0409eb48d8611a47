"""The count rule: every count argument goes through errors.check_count.

Each site refuses bools, floats, NumPy floats, strings and values below its
minimum with ConfigurationError (exit code 1), and gives a NumPy integer the
same result as the plain int.
"""

import numpy as np
import pytest

from moqa import (
    ConfigurationError,
    Linearization,
    TwoParabolasParams,
    build_final,
    build_initial,
    builtin_instance,
    evolve,
    gap_scan,
    generate,
    initial_ground_state,
    measure,
    uniform_grid,
    verify_two_parabolas,
)
from moqa.cli import build_parser

from conftest import make_instance

INST = make_instance(
    np.array([[0.0, 5.0], [1.2, 2.8], [4.2, 0.0], [2.0, 2.0],
              [3.0, 3.5], [5.0, 1.0], [0.5, 6.0], [6.0, 0.5]])
)
H0 = build_initial(3)
HW = build_final(INST, Linearization.pair(0.6))
STATE = evolve(H0, HW, 5.0, steps=8).final_state
PARAMS = {"n": 4, "x0": 4, "x0p": 11, "seed": 7}


def _params(name):
    return lambda v: generate(TwoParabolasParams(**{**PARAMS, name: v})).values.tobytes()


def _cli_evolve(name, tmp_path):
    def run(value):
        out = tmp_path / "run.json"
        args = build_parser().parse_args([
            "evolve", "--builtin", "--w", "0.57", "--T", "10", "--steps", "2",
            "--shots", "5", "--seed", "3", "--histogram", str(tmp_path / "h.csv"),
            "--output", str(out),
        ])
        setattr(args, name, value)
        args.func(args)
        return out.read_text(), (tmp_path / "h.csv").read_text()
    return run


# site id -> (call taking the count, the site's minimum, a valid count)
SITES = {
    "evolve.steps": (lambda v: evolve(H0, HW, 1.0, steps=v).final_state.tobytes(), 1, 4),
    "measure.shots": (lambda v: measure(STATE, v, seed=3).tobytes(), 0, 5),
    "measure.seed": (lambda v: measure(STATE, 5, seed=v).tobytes(), 0, 3),
    "uniform_grid.points": (lambda v: uniform_grid(v).tobytes(), 2, 8),
    "gap_scan.points": (lambda v: gap_scan(H0, HW, points=v).gap.tobytes(), 2, 8),
    "build_initial.n": (lambda v: build_initial(v).h_values.tobytes(), 1, 3),
    "initial_ground_state.n": (lambda v: initial_ground_state(v).tobytes(), 1, 3),
    "TwoParabolasParams.n": (_params("n"), 2, 4),
    "TwoParabolasParams.x0": (_params("x0"), 0, 4),
    "TwoParabolasParams.x0p": (_params("x0p"), 0, 11),
    "TwoParabolasParams.seed": (_params("seed"), 0, 7),
    "verify_two_parabolas.x0": (
        lambda v: repr(verify_two_parabolas(builtin_instance(), v, 79)), 0, 39),
    "verify_two_parabolas.x0p": (
        lambda v: repr(verify_two_parabolas(builtin_instance(), 39, v)), 0, 79),
    "cli.evolve.shots": ("shots", 0, 5),
    "cli.evolve.seed": ("seed", 0, 3),
}


def _site(site, tmp_path):
    call, minimum, good = SITES[site]
    if isinstance(call, str):
        call = _cli_evolve(call, tmp_path)
    return call, minimum, good


@pytest.mark.parametrize("bad", [
    pytest.param(True, id="bool"),
    pytest.param(2.5, id="float"),
    pytest.param(np.float64(2.0), id="numpy_float"),
    pytest.param("2", id="string"),
    pytest.param(None, id="below_minimum"),
])
@pytest.mark.parametrize("site", SITES)
def test_count_sites_refuse_non_counts(site, bad, tmp_path):
    call, minimum, _ = _site(site, tmp_path)
    with pytest.raises(ConfigurationError) as info:
        call(minimum - 1 if bad is None else bad)
    assert info.value.exit_code == 1


@pytest.mark.parametrize("site", SITES)
def test_count_sites_accept_numpy_integers(site, tmp_path):
    call, _, good = _site(site, tmp_path)
    assert call(np.int64(good)) == call(good)


def test_float_vertex_is_a_configuration_error():
    # A float vertex is refused before it reaches the slicing.
    with pytest.raises(ConfigurationError, match="x0 must be an integer"):
        verify_two_parabolas(builtin_instance(), 39.0, 79)

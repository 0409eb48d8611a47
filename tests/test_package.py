"""Public surface of the package."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import moqa

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_all_names_resolve_once():
    names = moqa.__all__
    assert len(names) == len(set(names)), "duplicate names in moqa.__all__"
    assert [name for name in names if not hasattr(moqa, name)] == []


def test_no_function_takes_a_second_way_in():
    # The separation vector comes from the instance (McoInstance.with_lambda
    # overrides it), the gap grid from uniform_grid, the initial state from
    # initial_ground_state, and write_instance always writes the sidecar.
    removed = {"lam", "s_values", "psi0", "with_sidecar"}
    found = {
        name: sorted(removed & set(inspect.signature(obj).parameters))
        for name in moqa.__all__
        if inspect.isfunction(obj := getattr(moqa, name))
    }
    assert {name: params for name, params in found.items() if params} == {}


def test_benchmark_trace_targets_resolve(monkeypatch):
    # The benchmark's tracer wraps each (module, attribute) pair in TARGETS;
    # a name that moves or goes away breaks only the traced benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        (module, attr)
        for module, attr, _, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.TARGETS and missing == []


def test_spectral_binds_no_moved_solver_name():
    # The rank-one solver lives in moqa.rank_one, and spectral imports only
    # secular_roots from it.  A moved name still bound in spectral would let
    # a test's monkeypatch.setattr(spectral, ...) patch a name that the
    # solver never looks up, instead of raising.
    from moqa import rank_one, spectral

    moved = [
        "_secular_block", "_quadratic_roots", "_direct_sums", "_windows", "_fitted_sums",
        "_far_sums", "FarPoleFit", "far_pole_fit", "_far_samples", "_chebyshev_series",
        "_chebyshev", "_fit_windows", "_FIT_NODES", "_LEAF_NODES", "rank_one_eigh",
        "rank_one_vectors", "_level_gaps", "_slice_roots", "rank_one_evolve",
        "RANK_ONE_STEP_TOL", "RANK_ONE_MAX_STEPS", "RANK_ONE_BLOCK", "FIT_REACH", "FIT_DEGREE",
        "FIT_MIN_WORK", "_LEAF_MIN", "_LEAF_DEGREE", "ANCHOR", "WARM_MIN_STEPS",
    ]
    assert [name for name in moved if not hasattr(rank_one, name)] == []
    assert [name for name in moved if hasattr(spectral, name)] == []
    assert spectral.secular_roots is rank_one.secular_roots

"""Spans around the calls into each moqa layer, recorded from outside.

Each wrapper replaces a function under the name its caller looks it up by:
``moqa.cli.gap_scan`` for the CLI's call, ``moqa.spectral.interpolation_dense``
and ``moqa.evolution.interpolation_dense`` for the two callers of the
dense interpolation, ``scipy.linalg.eigh`` for every dense eigensolve, and
so on.  Spans stay in memory; per-layer numbers are derived from them after
each traced pass.  Nothing in src/moqa is modified on disk.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

COMMANDS = ("validate", "front", "gap-scan", "resolve", "evolve")


def _eigh_counts(args, kwargs, result) -> dict:
    # Dense symmetric eigensolver cost (Golub & Van Loan): tridiagonal
    # reduction 4/3 N^3, plus about 23/3 N^3 more to accumulate eigenvectors.
    dim = int(np.shape(args[0])[0])
    vectors = not kwargs.get("eigvals_only", False)
    return {"dim": dim, "flops": (9.0 if vectors else 4.0 / 3.0) * dim ** 3}


def _text_bytes(args, kwargs, result) -> dict:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode())}


# (module, attribute, span name, counts taken from the call)
TARGETS = (
    ("moqa.cli", "read_instance", "instance_io.read_instance", None),
    ("moqa.cli", "write_text_atomic", "instance_io.write_text_atomic", _text_bytes),
    ("moqa.cli", "builtin_instance", "two_parabolas.builtin_instance", None),
    ("moqa.cli", "validate", "mco.validate", None),
    ("moqa.cli", "supported_solutions", "mco.supported_solutions", None),
    ("moqa.cli", "resolve", "resolver.resolve", None),
    ("moqa.cli", "build_initial", "hamiltonians.build_initial", None),
    ("moqa.cli", "build_final", "hamiltonians.build_final", None),
    ("moqa.cli", "gap_scan", "spectral.gap_scan", lambda a, k, r: {"points": r.gap.size}),
    ("moqa.cli", "delta_max", "spectral.delta_max", None),
    ("moqa.cli", "runtime_estimate", "spectral.runtime_estimate", None),
    ("moqa.cli", "end_gap_diagnostics", "spectral.end_gap_diagnostics", None),
    ("moqa.cli", "evolve", "evolution.evolve", lambda a, k, r: {"slices": r.steps}),
    ("moqa.cli", "measure", "evolution.measure", None),
    ("moqa.cli", "write_histogram_csv", "evolution.write_histogram_csv", None),
    ("moqa.mco", "pareto_front", "mco.pareto_front", lambda a, k, r: {"front": len(r)}),
    ("moqa.mco", "trivial_solutions", "mco.trivial_solutions", None),
    ("moqa.spectral", "trivial_solutions", "mco.trivial_solutions", None),
    ("moqa.hamiltonians", "scalarize", "mco.scalarize", None),
    ("moqa.spectral", "scalarize", "mco.scalarize", None),
    ("moqa.resolver", "scalarize", "mco.scalarize", None),
    ("moqa.resolver", "build_final", "hamiltonians.build_final", None),
    ("moqa.resolver", "degeneracy_check", "spectral.degeneracy_check", None),
    ("moqa.evolution", "degeneracy_check", "spectral.degeneracy_check", None),
    ("moqa.spectral", "interpolation_dense", "hamiltonians.interpolation_dense",
     lambda a, k, r: {"bytes": r.nbytes}),
    ("moqa.evolution", "interpolation_dense", "hamiltonians.interpolation_dense",
     lambda a, k, r: {"bytes": r.nbytes}),
    ("moqa.evolution", "commutes", "hamiltonians.commutes", None),
    ("moqa.spectral", "write_text_atomic", "instance_io.write_text_atomic", _text_bytes),
    ("moqa.evolution", "write_text_atomic", "instance_io.write_text_atomic", _text_bytes),
    ("scipy.linalg", "eigh", "linalg.eigh", _eigh_counts),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", None),
    ("numpy.linalg", "norm", "linalg.norm2", None),  # spans only ord=2 on a matrix
)

# name, unit, better; the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    ("linalg.eigh.calls", "count", "lower"),
    ("linalg.eigh.s", "s", "lower"),
    ("linalg.eigh.dim_max", "count", "lower"),
    ("linalg.eigh.flops_computed", "flop", "lower"),
    ("linalg.eigvalsh.s", "s", "lower"),
    ("linalg.norm2.s", "s", "lower"),
    ("hamiltonians.interpolation_dense.calls", "count", "lower"),
    ("hamiltonians.interpolation_dense.s", "s", "lower"),
    ("hamiltonians.interpolation_dense.bytes_computed", "bytes", "lower"),
    ("hamiltonians.commutes.s", "s", "lower"),
    ("hamiltonians.build_initial.s", "s", "lower"),
    ("hamiltonians.build_final.s", "s", "lower"),
    ("spectral.gap_scan.s", "s", "lower"),
    ("spectral.gap_scan.self_s", "s", "lower"),
    ("spectral.gap_scan.points", "count", "higher"),
    ("spectral.delta_max.s", "s", "lower"),
    ("spectral.end_gap_diagnostics.s", "s", "lower"),
    ("spectral.degeneracy_check.calls", "count", "lower"),
    ("evolution.evolve.s", "s", "lower"),
    ("evolution.evolve.self_s", "s", "lower"),
    ("evolution.evolve.slices", "count", "higher"),
    ("evolution.measure.s", "s", "lower"),
    ("evolution.write_histogram_csv.s", "s", "lower"),
    ("mco.pareto_front.calls", "count", "lower"),
    ("mco.pareto_front.s", "s", "lower"),
    ("mco.supported_solutions.self_s", "s", "lower"),
    ("mco.validate.s", "s", "lower"),
    ("mco.scalarize.calls", "count", "lower"),
    ("mco.trivial_solutions.s", "s", "lower"),
    ("mco.front_size", "count", "higher"),
    ("resolver.resolve.s", "s", "lower"),
    ("resolver.candidates", "count", "lower"),
    ("resolver.useful_ratio", "1", "higher"),
    ("instance_io.read_instance.calls", "count", "lower"),
    ("instance_io.read_instance.s", "s", "lower"),
    ("instance_io.write_text_atomic.calls", "count", "lower"),
    ("instance_io.write_text_atomic.s", "s", "lower"),
    ("instance_io.write_text_atomic.bytes", "bytes", "lower"),
    ("two_parabolas.builtin_instance.s", "s", "lower"),
    *((f"cli.{c}.s", "s", "lower") for c in COMMANDS),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_share", "1", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    pass_id: int
    child_s: float = 0.0  # time covered by direct child spans
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Records spans while installed; ``pass_id`` tags the spans of one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn, *args, counts=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.end - span.start
        if counts is not None:
            span.counts = counts(args, kwargs, result)
        return result

    def _wrapper(self, fn, name, counts):
        if name == "linalg.norm2":
            @functools.wraps(fn)
            def norm(x, *args, **kwargs):
                order = args[0] if args else kwargs.get("ord")
                if isinstance(order, int) and order == 2 and np.ndim(x) == 2:
                    return self.call(name, fn, x, *args, **kwargs)
                return fn(x, *args, **kwargs)
            return norm

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counts=counts, **kwargs)
        return traced

    def install(self) -> None:
        for module_name, attr, name, counts in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name, counts))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def pass_metrics(self, pass_id: int, wall: float) -> dict[str, float]:
        """Per-layer numbers of one traced pass (trace.overhead_s excluded)."""
        spans = [s for s in self.spans if s.pass_id == pass_id]

        def of(name):
            return [s for s in spans if s.name == name]

        def total(name):
            return sum(s.end - s.start for s in of(name))

        def self_time(name):
            return sum(s.self_s for s in of(name))

        def summed(name, key):
            return sum(s.counts.get(key, 0) for s in of(name))

        resolves = {i for i, s in enumerate(self.spans)
                    if s.pass_id == pass_id and s.name == "resolver.resolve"}
        candidates = sum(1 for s in of("mco.scalarize") if s.parent in resolves)
        cli_spans = [s for s in spans if s.name.startswith("cli.")]
        covered = sum(s.end - s.start for s in cli_spans)
        m = {
            "linalg.eigh.calls": len(of("linalg.eigh")),
            "linalg.eigh.s": total("linalg.eigh"),
            "linalg.eigh.dim_max": max((s.counts["dim"] for s in of("linalg.eigh")), default=0),
            "linalg.eigh.flops_computed": summed("linalg.eigh", "flops"),
            "linalg.eigvalsh.s": total("linalg.eigvalsh"),
            "linalg.norm2.s": total("linalg.norm2"),
            "hamiltonians.interpolation_dense.calls": len(of("hamiltonians.interpolation_dense")),
            "hamiltonians.interpolation_dense.s": total("hamiltonians.interpolation_dense"),
            "hamiltonians.interpolation_dense.bytes_computed":
                summed("hamiltonians.interpolation_dense", "bytes"),
            "hamiltonians.commutes.s": total("hamiltonians.commutes"),
            "hamiltonians.build_initial.s": total("hamiltonians.build_initial"),
            "hamiltonians.build_final.s": total("hamiltonians.build_final"),
            "spectral.gap_scan.s": total("spectral.gap_scan"),
            "spectral.gap_scan.self_s": self_time("spectral.gap_scan"),
            "spectral.gap_scan.points": summed("spectral.gap_scan", "points"),
            "spectral.delta_max.s": total("spectral.delta_max"),
            "spectral.end_gap_diagnostics.s": total("spectral.end_gap_diagnostics"),
            "spectral.degeneracy_check.calls": len(of("spectral.degeneracy_check")),
            "evolution.evolve.s": total("evolution.evolve"),
            "evolution.evolve.self_s": self_time("evolution.evolve"),
            "evolution.evolve.slices": summed("evolution.evolve", "slices"),
            "evolution.measure.s": total("evolution.measure"),
            "evolution.write_histogram_csv.s": total("evolution.write_histogram_csv"),
            "mco.pareto_front.calls": len(of("mco.pareto_front")),
            "mco.pareto_front.s": total("mco.pareto_front"),
            "mco.supported_solutions.self_s": self_time("mco.supported_solutions"),
            "mco.validate.s": total("mco.validate"),
            "mco.scalarize.calls": len(of("mco.scalarize")),
            "mco.trivial_solutions.s": total("mco.trivial_solutions"),
            "mco.front_size": summed("mco.pareto_front", "front"),
            "resolver.resolve.s": total("resolver.resolve"),
            "resolver.candidates": candidates,
            "resolver.useful_ratio": 1.0 / candidates if candidates else 0.0,
            "instance_io.read_instance.calls": len(of("instance_io.read_instance")),
            "instance_io.read_instance.s": total("instance_io.read_instance"),
            "instance_io.write_text_atomic.calls": len(of("instance_io.write_text_atomic")),
            "instance_io.write_text_atomic.s": total("instance_io.write_text_atomic"),
            "instance_io.write_text_atomic.bytes": summed("instance_io.write_text_atomic", "bytes"),
            "two_parabolas.builtin_instance.s": total("two_parabolas.builtin_instance"),
            "cli.self_s": sum(s.self_s for s in cli_spans),
            "trace.wall_s": wall,
            "trace.uncovered_share": (wall - covered) / wall,
        }
        for c in COMMANDS:
            m[f"cli.{c}.s"] = total(f"cli.{c}")
        return m

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "pass": s.pass_id, **s.counts}
            for s in self.spans
        ]

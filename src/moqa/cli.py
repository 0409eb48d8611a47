"""Command-line front end.

Subcommands: validate, front, gap-scan, resolve, evolve, bench export.
Exit codes: 0 success, 1 I/O or argument parse failure, 2 instance
validation failure, 3 unresolvable degeneracy, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    InstanceFormatError,
    InvalidLinearizationError,
    MoqaError,
    check_count,
)
from .evolution import DEFAULT_STEPS, evolve, measure, write_histogram_csv
from .hamiltonians import DEFAULT_INITIAL_SCALE, build_final, build_initial
from .instance_io import read_instance, write_instance, write_text_atomic
from .mco import Linearization, McoInstance, supported_solutions, validate
from .resolver import resolve
from .spectral import (
    DEFAULT_GRID_POINTS,
    DEGENERACY_TOL,
    delta_max,
    end_gap_diagnostics,
    gap_scan,
    runtime_estimate,
)
from .two_parabolas import builtin_instance

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_UNRESOLVABLE = 3
EXIT_NUMERICAL = 4

# The stderr line of a failure starts with the prefix of its exit code.
_FAILURE_PREFIX = {
    EXIT_IO: "error",
    EXIT_UNRESOLVABLE: "unresolvable degeneracy",
    EXIT_NUMERICAL: "numerical failure",
}


class _Parser(argparse.ArgumentParser):
    # Argument mistakes are parse failures, not validation failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _parse_weights(text: str) -> Linearization:
    try:
        vals = [float(p) for p in text.split(",")]
    except ValueError:
        raise InvalidLinearizationError(f"cannot parse weights {text!r}") from None
    if len(vals) == 1:
        return Linearization.pair(vals[0])
    return Linearization(np.asarray(vals))


def _parse_lambda(text: str) -> np.ndarray:
    try:
        return np.asarray([float(p) for p in text.split(",")], dtype=np.float64)
    except ValueError:
        raise InstanceFormatError(f"cannot parse separations {text!r}") from None


def _load_instance(args) -> McoInstance:
    if args.builtin and args.instance:
        raise _UsageError("give either an instance path or --builtin, not both")
    if args.builtin:
        inst = builtin_instance()
    elif args.instance:
        inst = read_instance(args.instance)
    else:
        raise _UsageError("an instance path or --builtin is required")
    if getattr(args, "lam", None) is not None:
        inst = inst.with_lambda(_parse_lambda(args.lam))
    return inst


def _emit(obj, output: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if output:
        write_text_atomic(output, text)
    else:
        sys.stdout.write(text)


def _suffixed(path: str | None, k: int, many: bool) -> str | None:
    if path is None or not many:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}.w{k}{p.suffix}"))


def _add_instance_args(p: _Parser) -> None:
    p.add_argument("instance", nargs="?", help="instance CSV path")
    p.add_argument("--builtin", action="store_true",
                   help="use the bundled 7-bit benchmark table")


def _add_lambda_arg(p: _Parser) -> None:
    p.add_argument("--lambda", dest="lam", metavar="L1,L2,...",
                   help="per-objective separation override")


def _add_weight_arg(p: _Parser) -> None:
    p.add_argument("--w", dest="weights", action="append", required=True,
                   metavar="W1[,W2,...]",
                   help="objective weights; a single value W expands to (W, 1-W)")


def build_parser() -> _Parser:
    parser = _Parser(prog="moqa",
                     description="multiobjective annealing simulator and analysis")
    parser.add_argument("--version", action="version", version=f"moqa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check instance structure")
    _add_instance_args(p)
    _add_lambda_arg(p)
    p.add_argument("--collision-scope", choices=["adjacent", "all"],
                   default="adjacent")
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("front", help="Pareto front and its classification")
    _add_instance_args(p)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_front)

    p = sub.add_parser("gap-scan", help="two lowest eigenvalues along the schedule")
    _add_instance_args(p)
    _add_lambda_arg(p)
    _add_weight_arg(p)
    p.add_argument("--initial-scale", type=float, default=DEFAULT_INITIAL_SCALE)
    p.add_argument("--points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--delta", type=float, default=0.1,
                   help="error parameter of the rigorous runtime bound")
    p.add_argument("--curve", default="gap_curve.csv",
                   help="where to write the per-sample CSV")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_gap_scan)

    p = sub.add_parser("resolve", help="break a degenerate weighted minimum")
    _add_instance_args(p)
    _add_lambda_arg(p)
    _add_weight_arg(p)
    p.add_argument("--degeneracy-tol", type=float, default=DEGENERACY_TOL)
    p.add_argument("--collision-scope", choices=["adjacent", "all"],
                   default="adjacent")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("evolve", help="simulate the annealing schedule")
    _add_instance_args(p)
    _add_weight_arg(p)
    p.add_argument("--T", dest="total_time", type=float, required=True,
                   help="schedule duration")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--initial-scale", type=float, default=DEFAULT_INITIAL_SCALE)
    p.add_argument("--shots", type=int, default=0,
                   help="measurement samples of the final state")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--histogram", default="histogram.csv",
                   help="where to write counts when --shots > 0")
    p.add_argument("--degeneracy-tol", type=float, default=DEGENERACY_TOL)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("bench", help="bundled benchmark utilities")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    pe = bench_sub.add_parser("export", help="write the bundled table as CSV")
    pe.add_argument("--output", required=True, help="CSV destination path")
    pe.set_defaults(func=_cmd_bench_export)

    return parser


def _header(inst: McoInstance) -> dict:
    return {"n": inst.n, "d": inst.d, "label_offset": inst.label_offset}


def _fan_out(args, payload_for) -> int:
    """Emit payload_for(w, path_for) for each --w weighting in turn.

    path_for maps an output path to this weighting's path: unchanged for a
    single weighting, with a .w<k> suffix before the extension otherwise.
    Each payload is written before the next weighting is parsed.
    """
    many = len(args.weights) > 1
    for k, wtext in enumerate(args.weights):
        path_for = functools.partial(_suffixed, k=k, many=many)
        _emit(payload_for(_parse_weights(wtext), path_for), path_for(args.output))
    return EXIT_OK


def _cmd_validate(args) -> int:
    inst = _load_instance(args)
    report = validate(inst, collision_scope=args.collision_scope)
    payload = {
        **_header(inst),
        "lambda": None if inst.lam is None else [float(v) for v in inst.lam],
        "report": asdict(report),
        "pass": report.all_pass,
    }
    _emit(payload, args.output)
    return EXIT_OK if report.all_pass else EXIT_VALIDATION


def _cmd_front(args) -> int:
    inst = _load_instance(args)
    cls = supported_solutions(inst)
    payload = {**_header(inst), "method": cls.method}
    for name in ("pareto", "trivial", "supported", "nonsupported"):
        indices = getattr(cls, name)
        payload[name] = list(indices)
        payload[f"{name}_labels"] = [inst.label(x) for x in indices]
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_gap_scan(args) -> int:
    if not 0.0 < args.delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {args.delta}")
    inst = _load_instance(args)
    h0 = build_initial(inst.n, scale=args.initial_scale)

    def payload_for(w, path_for):
        hw = build_final(inst, w)
        curve = gap_scan(h0, hw, points=args.points)
        dmax = delta_max(h0, hw)
        est = runtime_estimate(curve.g_min, dmax, delta=args.delta)
        if inst.lam is not None:
            diag = end_gap_diagnostics(inst, w, gap_curve=curve)
            diag_payload = asdict(diag)
            diag_payload["minimizer_label"] = inst.label(diag.minimizer)
        else:
            diag_payload = None
        # Only a weighting whose estimate and diagnostics succeeded leaves a curve.
        curve_path = path_for(args.curve)
        curve.to_csv(curve_path)
        return {
            **_header(inst),
            "weights": list(w.as_tuple()),
            "initial_scale": float(args.initial_scale),
            "points": int(args.points),
            "g_min": curve.g_min,
            "s_at_min": curve.s_at_min,
            "gap_at_start": float(curve.gap[0]),
            "gap_at_end": float(curve.gap[-1]),
            "delta_max": dmax,
            "runtime": asdict(est),
            "diagnostics": diag_payload,
            "curve_csv": str(curve_path),
        }

    return _fan_out(args, payload_for)


def _cmd_resolve(args) -> int:
    inst = _load_instance(args)
    if inst.lam is None:
        raise ConfigurationError(
            "resolve needs a separation vector (sidecar or --lambda)"
        )
    report = validate(inst, collision_scope=args.collision_scope)
    if not report.all_pass:
        sys.stderr.write("instance failed validation:\n")
        for msg in report.messages:
            sys.stderr.write(f"  {msg}\n")
        return EXIT_VALIDATION

    def payload_for(w, path_for):
        cert = resolve(inst, w, tie_tol=args.degeneracy_tol)
        return {
            **_header(inst),
            "certificate": asdict(cert),
            "chosen_label": inst.label(cert.chosen_index),
            "tied_labels": [inst.label(x) for x in cert.tied_indices],
        }

    return _fan_out(args, payload_for)


def _cmd_evolve(args) -> int:
    args.shots = check_count("shots", args.shots, 0)
    if args.seed is not None:
        args.seed = check_count("seed", args.seed, 0)
    inst = _load_instance(args)
    h0 = build_initial(inst.n, scale=args.initial_scale)

    def payload_for(w, path_for):
        hw = build_final(inst, w)
        result = evolve(h0, hw, args.total_time, steps=args.steps,
                        tie_tol=args.degeneracy_tol)
        hist_path = None
        if args.shots > 0:
            counts = measure(result.final_state, args.shots, seed=args.seed)
            hist_path = path_for(args.histogram)
            write_histogram_csv(counts, hist_path)
        fields = asdict(result)
        del fields["final_state"]
        return {
            **_header(inst),
            "weights": list(w.as_tuple()),
            "initial_scale": float(args.initial_scale),
            "result": {
                "dim": result.final_state.size,
                **fields,
                "distribution": result.distribution.tolist(),
            },
            "target_label": (
                None if result.target_index is None else inst.label(result.target_index)
            ),
            "shots": int(args.shots),
            "seed": args.seed,
            "histogram_csv": None if hist_path is None else str(hist_path),
        }

    return _fan_out(args, payload_for)


def _cmd_bench_export(args) -> int:
    write_instance(builtin_instance(), args.output)
    return EXIT_OK


@functools.cache
def _parser() -> _Parser:
    # Built on the first call; each parse_args fills a fresh namespace.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except MoqaError as exc:
        return _fail(exc.exit_code, exc)
    except (_UsageError, OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_IO, exc)
    except np.linalg.LinAlgError as exc:
        return _fail(EXIT_NUMERICAL, exc)


def _fail(code: int, exc: BaseException) -> int:
    sys.stderr.write(f"{_FAILURE_PREFIX[code]}: {exc}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

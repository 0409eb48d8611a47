"""moqa benchmark: one workload per run, through moqa.cli.main(argv).

    python3 perfbench/run.py --workload anneal_n10 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload's inputs are built from --seed
in a temporary directory under the root, which is removed on exit.  The
passes of the workload's command sequence run in WORKERS fresh worker
processes, one after another, each for an equal share of --seconds and at
least one pass; every command's output is checked.  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 untraced and
traced passes alternate and it carries the per-layer metrics.  The line
before it is a report with the environment, every workload-specific metric
and the sample counts.  --smoke shrinks the inputs to n = 4 and runs the
minimum number of passes in one worker.  See perfbench/README.md.
"""

import os
import sys

# Single-threaded BLAS is the baseline; it must be fixed before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# A run must leave no file behind, bytecode caches included.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Pass times differ by 10-20 % between otherwise identical processes (memory
# layout), so the passes are spread over several fresh processes, and one
# set-up is timed before each so that set-up samples spread over the run too.
WORKERS = 4
# A child runs at most one worker's share of --seconds plus its warm-up.
CHILD_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import moqa.cli; print(time.perf_counter() - t)"
)


def _setup_once(name: str, seed: int, inputs: Path, out: Path, smoke: bool):
    """One set-up: `import moqa.cli` in a fresh interpreter, as a CLI user
    pays it, plus building and writing the inputs.  Returns (workload, s)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    t_import = float(done.stdout.strip().splitlines()[-1])
    inputs.mkdir()
    start = perf_counter()
    wl = workloads.build(name, seed, inputs, out, smoke)
    return wl, t_import + perf_counter() - start


def _in_child(fn: str, *args):
    """Run CHILD_FUNCTIONS[fn](*args) in a fresh interpreter and wait for it.

    A plain subprocess rather than multiprocessing, whose spawn context
    starts a resource-tracker process that outlives the benchmark.  On a
    timeout or an interrupt subprocess.run kills the child and reaps it.
    """
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"],
                          input=pickle.dumps((fn, args)), stdout=subprocess.PIPE,
                          check=True, timeout=CHILD_TIMEOUT_S)
    return pickle.loads(done.stdout)


def _child() -> int:
    """Body of --child: unpickle (fn, args) from stdin, pickle the result to
    stdout.  Anything else written to stdout goes to stderr instead."""
    result_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.path.insert(0, str(SRC))
    fn, args = pickle.load(sys.stdin.buffer)
    pickle.dump(CHILD_FUNCTIONS[fn](*args), result_out)
    result_out.close()
    return 0


def _references(wl) -> list:
    """Reference per command, from a child process so that neither timing
    nor any worker's peak memory includes it."""
    jobs, owners = [], []
    for i, table in enumerate(wl.tables):
        if table.path is not None:
            jobs.append(("validate", table.values, table.lam))
            owners.append(("valid", i))
        if any(c.table is table and c.name in ("front", "resolve") for c in wl.commands):
            jobs.append(("front", table.values))
            owners.append(("front", i))
    for k, cmd in enumerate(wl.commands):
        if cmd.name == "gap-scan":
            jobs.append(("gap", cmd.table.values, cmd.weights, cmd.points))
            owners.append(("gap", k))
    found = dict(zip(owners, _in_child("references", jobs)))
    for i, _ in enumerate(wl.tables):
        if found.get(("valid", i)) is False:
            raise RuntimeError(f"benchmark-built table {i} of {wl.name} fails validate")
    return [
        found.get(("gap", k), found.get(("front", wl.tables.index(cmd.table))))
        for k, cmd in enumerate(wl.commands)
    ]


def _run_pass(wl, main, tracer):
    """One pass of the command sequence; returns its wall time, per-command
    times and exit codes.  Only this function runs inside the timed region."""
    times, codes = [], []
    with contextlib.redirect_stdout(sys.stderr):
        start = perf_counter()
        for cmd in wl.commands:
            c0 = perf_counter()
            try:
                if tracer is None:
                    code = main(cmd.argv)
                else:
                    code = tracer.call(f"cli.{cmd.name}", main, cmd.argv)
            except Exception:  # a crash is a failed command, not a failed run
                traceback.print_exc()
                code = -1
            times.append(perf_counter() - c0)
            codes.append(code)
        wall = perf_counter() - start
    return wall, times, codes


def _clear(out: Path) -> None:
    for p in out.iterdir():
        p.unlink()


def measure(wl, warm, refs, seconds: float, trace: bool, first: int, min_passes: int,
            want_spans: bool) -> dict:
    """Worker body: warm up, then run and check passes for `seconds`.

    Pass number `first` + i is traced when trace is set and it is odd, so
    untraced and traced passes alternate across workers.
    """
    from moqa.cli import main

    out = wl.commands[0].outputs["json"].parent
    validators = checks.load_validators(SRC / "moqa" / "schemas")
    _run_pass(warm, main, None)  # imports and first-call set-up finish here
    _clear(out)

    tracer = spans.Tracer()
    r = {"walls": {False: [], True: []}, "cmd_times": [], "layer": [], "attempted": 0,
         "failed": 0, "problems": [], "fidelity": None}
    passes = 0
    deadline = perf_counter() + seconds
    while passes < min_passes or perf_counter() < deadline:
        number = first + passes
        traced = trace and number % 2 == 1
        passes += 1
        if traced:
            tracer.pass_id = number
            tracer.install()
        try:
            wall, times, codes = _run_pass(wl, main, tracer if traced else None)
        finally:
            tracer.uninstall()
        r["walls"][traced].append(wall)
        if traced:
            r["layer"].append(tracer.pass_metrics(number, wall))
        else:
            r["cmd_times"].append(times)
        for k, (cmd, code) in enumerate(zip(wl.commands, codes)):
            r["attempted"] += 1
            found = checks.check(cmd, code, validators, refs[k])
            if found:
                r["failed"] += 1
                r["problems"] += [f"pass {number} {cmd.name}: {p}" for p in found]
            if cmd.name == "evolve" and not found:
                result = json.loads(cmd.outputs["json"].read_text())["result"]
                r["fidelity"] = result["ground_fidelity"]
        _clear(out)
    r["passes"] = passes
    r["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    r["spans"] = tracer.dump() if want_spans else []
    return r


def _timing(samples: list[float]) -> dict | None:
    """Median plus the highest percentile with at least ten samples beyond it."""
    if not samples:
        return None
    s = sorted(samples)
    k = len(s)
    tail = None if k <= 10 else {"pct": round(100.0 * (k - 10) / k, 1), "value": s[k - 11]}
    return {"median": statistics.median(s), "tail": tail, "samples": k}


def _blas(module) -> str:
    try:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, spans_path) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return _run(name, seed, seconds, trace, smoke, spans_path, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(name, seed, seconds, trace, smoke, spans_path, tmp: Path) -> dict:
    sys.path.insert(0, str(SRC))
    out = tmp / "out"
    out.mkdir()
    workers, seconds = (1, 0.0) if smoke else (WORKERS, seconds)
    setups, runs = [], []
    for i in range(workers):
        wl_i, setup_s = _setup_once(name, seed, tmp / f"inputs{i}", out, smoke)
        setups.append(setup_s)
        if i == 0:
            wl = wl_i
            refs = _references(wl)
            (tmp / "warm").mkdir()
            warm = workloads.build(name, seed, tmp / "warm", out, smoke=True)
        first = sum(r["passes"] for r in runs)
        min_passes = 2 if trace and workers == 1 else 1  # one traced, one not
        runs.append(_in_child("measure", wl, warm, refs, seconds / workers, trace, first,
                              min_passes, bool(spans_path)))

    walls = [w for r in runs for w in r["walls"][False]]
    traced_walls = [w for r in runs for w in r["walls"][True]]
    cmd_times = [t for r in runs for t in r["cmd_times"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    peak_rss_mb = max(r["peak_rss_mb"] for r in runs)
    setup_s = statistics.median(setups)

    def rate(kind: str, work: int):
        idx = [k for k, c in enumerate(wl.commands) if c.name == kind]
        return _timing([work / sum(t[k] for k in idx) for t in cmd_times]) if idx else None

    report = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "environment": environment(),
        "setup_s": _timing(setups),
        "wall_s": _timing(walls),
        "passes_per_worker": [r["passes"] for r in runs],
        "commands": {f"{k}:{c.name}": _timing([t[k] for t in cmd_times])
                     for k, c in enumerate(wl.commands)},
        "gap_points_per_s": rate("gap-scan", sum(c.points for c in wl.commands)),
        "evolve_slices_per_s": rate("evolve", sum(c.steps for c in wl.commands)),
        "front_rows_per_s": rate("front", sum(c.table.values.shape[0]
                                              for c in wl.commands if c.name == "front")),
        "ground_fidelity": runs[-1]["fidelity"],
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / attempted,
        "problems": [p for r in runs for p in r["problems"]][:20],
    }
    if trace:
        layer = [m for r in runs for m in r["layer"]]
        values = {key: statistics.median(m[key] for m in layer) for key in layer[0]}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        report["traced_wall_s"] = _timing(traced_walls)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in spans.PER_LAYER}
        if spans_path:
            Path(spans_path).write_text(json.dumps([s for r in runs for s in r["spans"]]) + "\n")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"report": report}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="n = 4 inputs, one worker, the minimum number of passes")
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1, also write every span as JSON to PATH")
    args = parser.parse_args(argv)
    if not (SRC / "moqa" / "cli.py").is_file():
        sys.stderr.write(f"error: no moqa sources under {SRC}; run from a checkout\n")
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.spans)
    print(json.dumps(result))
    return 0


CHILD_FUNCTIONS = {"measure": measure, "references": checks.compute_references}

if __name__ == "__main__":
    sys.exit(_child() if sys.argv[1:] == ["--child"] else main())

"""Seeded input tables and the command sequence of every workload.

The benchmark builds its own tables instead of calling ``moqa.generate``:
that generator's rejection sampling fails for some seeds at n >= 10, and
the benchmark must not depend on (or hide) that defect.  Every value is an
integer number of 1/64 ticks, so it is an exact binary fraction: the CSV
round trip is exact and a planted weighted-sum tie survives floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TICK = 1.0 / 64.0
TWO_BRANCH_LAMBDA = (0.2, 0.4)
# (left, right) base step of each objective around its vertex, in value
# units; the smallest step times (1 - JITTER) exceeds the separation.
TWO_BRANCH_CURVATURE = ((0.4, 0.8), (0.6, 1.2))
JITTER = 0.05
RANDOM_LAMBDA = 1.0

# Schedule duration of the bundled-table evolve: 10 x t_heuristic of
# `gap-scan --builtin --w 0.57` when the benchmark was defined.  A constant,
# so that a change to g_min cannot change the evolve input.
BUILTIN_T = 2.4811366e7
BUILTIN_W = "0.57"
N10_T = 1.0e3
N10_W = "0.5"
EVOLVE_SHOTS = 1000
EVOLVE_SEED = 7

WORKLOADS = ("anneal_builtin", "anneal_n10", "front_n13")


@dataclass(eq=False)
class Table:
    """A benchmark-built objective table and what the checks need to know."""

    values: np.ndarray  # float64, shape (2^n, d)
    lam: tuple[float, ...]
    path: Path | None = None
    tie: tuple[int, int] | None = None  # planted tie at uniform weights


@dataclass
class Command:
    """One CLI invocation of a pass, with the facts its checks use."""

    name: str  # subcommand, also the span name suffix
    argv: list[str]
    table: Table
    weights: tuple[float, ...] | None = None
    outputs: dict[str, Path] = field(default_factory=dict)
    points: int = 0
    steps: int = 0
    shots: int = 0


@dataclass
class Workload:
    name: str
    commands: list[Command]
    tables: list[Table]


def _branch(size: int, vertex: int, curv: tuple[float, float], rng) -> np.ndarray:
    """Integer ticks of one jittered discrete parabola with its zero at vertex.

    The step k away from the vertex is curv * (2k - 1) * (1 +- JITTER), so
    consecutive values always differ by more than the separation.
    """
    out = np.zeros(size, dtype=np.int64)
    for side, count in ((-1, vertex), (1, size - 1 - vertex)):
        k = np.arange(1, count + 1)
        c = curv[0] if side < 0 else curv[1]
        steps = np.rint(c * (2 * k - 1) * (1.0 + JITTER * rng.uniform(-1, 1, count)) / TICK)
        out[vertex + side * k] = np.cumsum(steps.astype(np.int64))
    return out


def _unique_argmin_after(f1: np.ndarray, g: np.ndarray, lo: int) -> int:
    """First argmin of g over [lo, size), made unique by lifting f1 to its right.

    Raising f1 on every row after the argmin raises one step of f1's right
    branch by one tick, which keeps the branch monotone and separated.
    """
    while True:
        m = lo + int(np.argmin(g[lo:]))
        if np.count_nonzero(g[lo:] == g[m]) == 1:
            return m
        f1[m + 1:] += 1
        g[m + 1:] += 1


def two_branch_table(n: int, seed: int, plant_tie: bool) -> Table:
    """Two-parabolas biobjective table with vertices at N/3 and 2N/3.

    The Pareto front is the index range between the vertices.  The minimum
    of f1 + f2 (weights 0.5, 0.5) is made unique; with plant_tie it is then
    shared exactly by a second front row, found as the best row to the
    right of the first and lowered onto it by shortening one f1 step.
    """
    size = 1 << n
    x0, x0p = size // 3, (2 * size) // 3
    rng = np.random.default_rng([seed, n])
    f1 = _branch(size, x0, TWO_BRANCH_CURVATURE[0], rng)
    f2 = _branch(size, x0p, TWO_BRANCH_CURVATURE[1], rng)
    g = f1 + f2
    m = _unique_argmin_after(f1, g, 0)
    tie = None
    if plant_tie:
        q = _unique_argmin_after(f1, g, m + 1)
        delta = g[q] - g[m]
        f1[m + 1:] -= delta
        tie = (m, q)
    lam_ticks = TWO_BRANCH_LAMBDA[0] / TICK
    if not (np.all(np.diff(f1[x0:]) > lam_ticks) and x0 <= m <= x0p):
        raise RuntimeError(f"two-branch construction broke its invariants (seed {seed})")
    values = np.column_stack([f1, f2]).astype(np.float64) * TICK
    return Table(values, TWO_BRANCH_LAMBDA, tie=tie)


def random_table(n: int, d: int, seed: int) -> Table:
    """Columns that are random permutations of 0, 2, 4, ...: adjacent rows
    differ by at least 2 > RANDOM_LAMBDA, and each column has one zero."""
    size = 1 << n
    rng = np.random.default_rng([seed, n, d])
    cols = [2 * rng.permutation(size) for _ in range(d)]
    zeros: set[int] = set()
    for col in cols:
        while int(np.argmin(col)) in zeros:
            col[:] = np.roll(col, 1)
        zeros.add(int(np.argmin(col)))
    return Table(np.column_stack(cols).astype(np.float64), (RANDOM_LAMBDA,) * d)


def write_table(table: Table, path: Path) -> None:
    """Instance CSV (x,f1,...,fd) plus its JSON sidecar."""
    size, d = table.values.shape
    lines = ["x," + ",".join(f"f{i + 1}" for i in range(d))]
    lines += [f"{x}," + ",".join(repr(float(v)) for v in row) for x, row in enumerate(table.values)]
    path.write_text("\n".join(lines) + "\n")
    lam = ", ".join(repr(v) for v in table.lam)
    path.with_suffix(".json").write_text(
        f'{{"n": {size.bit_length() - 1}, "d": {d}, "lambda": [{lam}], "label_offset": 0}}\n'
    )
    table.path = path


def builtin_table() -> Table:
    """The bundled table, for the checks; the commands use --builtin."""
    from moqa.two_parabolas import BUILTIN_LAMBDA, BUILTIN_TABLE

    return Table(np.asarray(BUILTIN_TABLE, dtype=np.float64), tuple(BUILTIN_LAMBDA))


def _pair(w: str) -> tuple[float, float]:
    return (float(w), 1.0 - float(w))


def _anneal(table: Table, source: list[str], w: str, points: int, steps: int,
            total_time: float, out: Path) -> list[Command]:
    gap = Command(
        "gap-scan",
        ["gap-scan", *source, "--w", w, "--points", str(points),
         "--curve", str(out / "curve.csv"), "--output", str(out / "gap.json")],
        table, weights=_pair(w), points=points,
        outputs={"json": out / "gap.json", "curve": out / "curve.csv"},
    )
    evo = Command(
        "evolve",
        ["evolve", *source, "--w", w, "--T", repr(total_time), "--steps", str(steps),
         "--shots", str(EVOLVE_SHOTS), "--seed", str(EVOLVE_SEED),
         "--histogram", str(out / "hist.csv"), "--output", str(out / "evolve.json")],
        table, weights=_pair(w), steps=steps, shots=EVOLVE_SHOTS,
        outputs={"json": out / "evolve.json", "histogram": out / "hist.csv"},
    )
    return [gap, evo]


def build(name: str, seed: int, inputs: Path, out: Path, smoke: bool = False) -> Workload:
    """Build and write a workload's inputs; return its command sequence.

    inputs holds the tables, out the command outputs; both are temporary.
    Smoke mode shrinks every generated table to n = 4 and the bundled-table
    schedule to 16 points and 16 slices.
    """
    if name == "anneal_builtin":
        table = builtin_table()
        points, steps = (16, 16) if smoke else (512, 512)
        cmds = _anneal(table, ["--builtin"], BUILTIN_W, points, steps, BUILTIN_T, out)
        return Workload(name, cmds, [table])
    if name == "anneal_n10":
        table = two_branch_table(4 if smoke else 10, seed, plant_tie=False)
        write_table(table, inputs / "n10.csv")
        cmds = _anneal(table, [str(table.path)], N10_W, 32, 4, N10_T, out)
        return Workload(name, cmds, [table])
    if name == "front_n13":
        tied = two_branch_table(4 if smoke else 13, seed, plant_tie=True)
        write_table(tied, inputs / "tie_d2.csv")
        rand = random_table(4 if smoke else 11, 3, seed)
        write_table(rand, inputs / "rand_d3.csv")
        p = str(tied.path)
        cmds = [
            Command("validate", ["validate", p, "--output", str(out / "validate.json")],
                    tied, outputs={"json": out / "validate.json"}),
            Command("front", ["front", p, "--output", str(out / "front_d2.json")],
                    tied, outputs={"json": out / "front_d2.json"}),
            Command("resolve", ["resolve", p, "--w", "0.5", "--output", str(out / "resolve.json")],
                    tied, outputs={"json": out / "resolve.json"}),
            Command("front", ["front", str(rand.path), "--output", str(out / "front_d3.json")],
                    rand, outputs={"json": out / "front_d3.json"}),
        ]
        return Workload(name, cmds, [tied, rand])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

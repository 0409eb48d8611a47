"""The benchmark's own references and the checks that feed error_rate.

A command counts as failed when it exits non-zero, when its JSON breaks the
matching schema in src/moqa/schemas/, or when its numbers disagree with a
reference computed here: a dense numpy.linalg.eigvalsh gap curve, a
sort-and-sweep (d = 2) or brute-force (d >= 3) Pareto front, the norm and
shot-count invariants of evolve, and the certificate properties of resolve.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import jsonschema
import numpy as np

NORM_DRIFT_MAX = 1e-6
# Dense symmetric eigensolvers are backward stable: eigenvalue errors stay
# below a small multiple of eps * ||H||.  This bound is far looser than that
# and far tighter than any real disagreement.
EIG_REL_TOL = 1e-9
TIE_TOL = 1e-9  # moqa's default degeneracy tolerance
INITIAL_SCALE = 8.0  # moqa default scale of the initial Hamiltonian, used by every command
SCHEMA_FILES = {
    "validate": "validate.schema.json",
    "front": "front.schema.json",
    "gap-scan": "gap_scan.schema.json",
    "resolve": "resolve.schema.json",
    "evolve": "evolve.schema.json",
}


def load_validators(schema_dir: Path) -> dict:
    return {
        cmd: jsonschema.Draft7Validator(json.loads((schema_dir / name).read_text()))
        for cmd, name in SCHEMA_FILES.items()
    }


def gap_reference(values: np.ndarray, weights, points: int) -> np.ndarray:
    """Two lowest eigenvalues of the benchmark's own dense H(s) on the grid."""
    diag = values @ np.asarray(weights, dtype=np.float64)
    size = diag.size
    h0 = INITIAL_SCALE * (np.eye(size) - 1.0 / size)
    out = np.empty((points, 2))
    for k, s in enumerate(np.linspace(0.0, 1.0, points)):
        h = (1.0 - s) * h0
        h[np.diag_indices(size)] += s * diag
        out[k] = np.linalg.eigvalsh(h)[:2]
    return out


def pareto_oracle(values: np.ndarray) -> list[int]:
    """Indices no other row dominates; equal rows do not exclude each other."""
    if values.shape[1] == 2:
        # Sort by f1 and sweep: a row survives when its f2 is the smallest
        # among rows with equal f1 and below every f2 seen at smaller f1.
        order = np.lexsort((values[:, 1], values[:, 0]))
        keep, best = [], np.inf
        i = 0
        while i < order.size:
            j = i
            while j < order.size and values[order[j], 0] == values[order[i], 0]:
                j += 1
            low = values[order[i], 1]
            if low < best:
                keep += [int(x) for x in order[i:j] if values[x, 1] == low]
                best = low
            i = j
        return sorted(keep)
    keep = []
    for start in range(0, values.shape[0], 256):
        block = values[start:start + 256]
        le = np.all(values[None, :, :] <= block[:, None, :], axis=2)
        lt = np.any(values[None, :, :] < block[:, None, :], axis=2)
        dominated = np.any(le & lt, axis=1)
        keep += [start + int(k) for k in np.nonzero(~dominated)[0]]
    return keep


def compute_references(jobs: list[tuple]) -> list:
    """Reference per job, computed in a child process outside all timing.

    A job is ("gap", values, weights, points), ("front", values) or
    ("validate", values, lam); the last confirms that a built table passes
    moqa's own structure checks.
    """
    out = []
    for kind, values, *rest in jobs:
        if kind == "gap":
            out.append(gap_reference(values, *rest))
        elif kind == "front":
            out.append(pareto_oracle(values))
        else:
            from moqa.mco import McoInstance, validate

            out.append(validate(McoInstance(values, np.asarray(rest[0]))).all_pass)
    return out


def _eig_tol(values: np.ndarray, weights, s: np.ndarray) -> np.ndarray:
    norm = (1.0 - s) * INITIAL_SCALE + s * float(np.max(np.abs(values @ np.asarray(weights))))
    return EIG_REL_TOL * np.maximum(1.0, norm)


def _check_gap(cmd, payload, ref) -> list[str]:
    problems = []
    grid = np.linspace(0.0, 1.0, cmd.points)
    gap = ref[:, 1] - ref[:, 0]
    tol = _eig_tol(cmd.table.values, cmd.weights, grid)
    k = int(np.argmin(gap))
    if abs(payload["g_min"] - gap[k]) > tol[k]:
        problems.append(f"g_min {payload['g_min']!r} != reference {float(gap[k])!r}")
    at = np.nonzero(grid == payload["s_at_min"])[0]
    if at.size != 1 or gap[at[0]] - gap[k] > tol[at[0]] + tol[k]:
        problems.append(f"s_at_min {payload['s_at_min']!r} is not a reference argmin")
    with open(cmd.outputs["curve"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    curve = np.array([[float(r["lambda0"]), float(r["lambda1"])] for r in rows])
    if curve.shape != ref.shape or np.any(np.abs(curve - ref) > tol[:, None]):
        problems.append("gap curve CSV differs from the reference eigenvalues")
    return problems


def _check_evolve(cmd, payload) -> list[str]:
    problems = []
    drift = payload["result"]["norm_drift"]
    if drift > NORM_DRIFT_MAX:
        problems.append(f"norm_drift {drift!r} > {NORM_DRIFT_MAX}")
    with open(cmd.outputs["histogram"], newline="") as fh:
        counts = [int(r["count"]) for r in csv.DictReader(fh)]
    if sum(counts) != cmd.shots or len(counts) != cmd.table.values.shape[0]:
        problems.append(f"histogram holds {sum(counts)} shots in {len(counts)} rows")
    return problems


def _check_resolve(cmd, payload, front: list[int]) -> list[str]:
    cert = payload["certificate"]
    chosen = cert["chosen_index"]
    scal = cmd.table.values @ np.asarray(cert["resolved_weights"])
    winners = np.nonzero(scal <= scal.min() + TIE_TOL)[0].tolist()
    checks = {
        "l1_distance exceeds radius": cert["l1_distance"] <= cert["radius"],
        "chosen index not among the tied": chosen in cert["tied_indices"],
        "tied set differs from the planted tie": sorted(cert["tied_indices"]) == sorted(cmd.table.tie),
        "chosen index is not the unique argmin": winners == [chosen],
        "chosen index is not on the front": chosen in front,
    }
    return [msg for msg, ok in checks.items() if not ok]


def check(cmd, code: int, validators: dict, ref) -> list[str]:
    """Problems with one command's result; an empty list means it passed.

    ref is the command's reference: the gap reference for gap-scan, the
    oracle front of its table for front and resolve, None otherwise.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(Path(cmd.outputs["json"]).read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    errors = [e.message for e in validators[cmd.name].iter_errors(payload)]
    if errors:
        return [f"schema: {m}" for m in errors[:3]]
    if cmd.name == "validate":
        return [] if payload["pass"] is True else ["validation did not pass"]
    if cmd.name == "front":
        return [] if payload["pareto"] == ref else ["front differs from the oracle"]
    try:
        if cmd.name == "gap-scan":
            return _check_gap(cmd, payload, ref)
        if cmd.name == "evolve":
            return _check_evolve(cmd, payload)
        return _check_resolve(cmd, payload, ref)
    except (OSError, ValueError, KeyError) as exc:  # missing or malformed CSV
        return [f"unreadable output: {exc!r}"]

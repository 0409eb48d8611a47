"""Reading and writing instance tables.

Format: a CSV with header ``x,f1,...,fd`` and one row per domain index,
listed in ascending order from 0 to 2^n - 1, plus an optional JSON sidecar
``{"n": ..., "d": ..., "lambda": [...], "label_offset": ...}`` next to the
CSV (same stem, ``.json`` extension).
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import InstanceFormatError
from .mco import McoInstance


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def write_text_atomic(path, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_instance(csv_path) -> McoInstance:
    """Load an instance from CSV, merging sidecar metadata when present.

    Args:
        csv_path: Path to the CSV table.

    Returns:
        McoInstance whose separation vector is the sidecar's "lambda"
        entry (None without one); override it with with_lambda.

    Raises:
        InstanceFormatError: On malformed headers, gaps or duplicates in the
            index column, non-numeric or negative values, a row count
            that does not cover a full power-of-two domain, or a sidecar
            field that is not numeric, an n, d or label_offset that is
            not an integer, or an n or d that disagrees with the table.
    """
    csv_path = Path(csv_path)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InstanceFormatError(f"{csv_path}: empty file") from None
        d = len(header) - 1
        if d < 2 or header[0] != "x" or header[1:] != [f"f{i+1}" for i in range(d)]:
            raise InstanceFormatError(
                f"{csv_path}: header must be x,f1,...,fd with d >= 2; got {header}"
            )
        rows: list[list[float]] = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != d + 1:
                raise InstanceFormatError(
                    f"{csv_path}:{lineno}: expected {d + 1} fields, got {len(rec)}"
                )
            try:
                x = int(rec[0])
                vals = [float(v) for v in rec[1:]]
            except ValueError as exc:
                raise InstanceFormatError(f"{csv_path}:{lineno}: {exc}") from None
            if x != len(rows):
                if 0 <= x < len(rows):
                    raise InstanceFormatError(
                        f"{csv_path}:{lineno}: duplicate index {x}"
                    )
                raise InstanceFormatError(
                    f"{csv_path}:{lineno}: index {x} out of order; "
                    f"expected {len(rows)} (gaps are not allowed)"
                )
            if any(v < 0 for v in vals):
                raise InstanceFormatError(
                    f"{csv_path}:{lineno}: negative objective value"
                )
            rows.append(vals)
    if not rows:
        raise InstanceFormatError(f"{csv_path}: no data rows")
    size = len(rows)
    if size & (size - 1) or size < 2:
        raise InstanceFormatError(
            f"{csv_path}: {size} rows do not cover a full 2^n domain"
        )

    lam, label_offset = None, 0
    meta = sidecar_path(csv_path)
    if meta.exists():
        with open(meta) as fh:
            try:
                info = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InstanceFormatError(f"{meta}: {exc}") from None
        if not isinstance(info, dict):
            raise InstanceFormatError(f"{meta}: sidecar must be a JSON object")
        n = size.bit_length() - 1
        if "n" in info and _sidecar_field(meta, info, "n", _exact_int) != n:
            raise InstanceFormatError(
                f"{meta}: sidecar n={info['n']} disagrees with {size} rows"
            )
        if "d" in info and _sidecar_field(meta, info, "d", _exact_int) != d:
            raise InstanceFormatError(
                f"{meta}: sidecar d={info['d']} disagrees with {d} columns"
            )
        if info.get("lambda") is not None:
            lam = _sidecar_field(meta, info, "lambda", _float_array)
        if "label_offset" in info:
            label_offset = _sidecar_field(meta, info, "label_offset", _exact_int)

    return McoInstance(np.asarray(rows), lam, label_offset)


def _sidecar_field(meta: Path, info: dict, key: str, convert):
    try:
        return convert(info[key])
    except (TypeError, ValueError, OverflowError):
        raise InstanceFormatError(
            f"{meta}: sidecar {key}={info[key]!r} is malformed"
        ) from None


def _exact_int(value) -> int:
    # int() truncates 2.9 to 2 and takes true as 1; n, d and label_offset
    # must be integers.
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float_array(value) -> np.ndarray:
    # np.asarray takes true as 1.0; separations must be numbers.
    if _holds_bool(value):
        raise ValueError(f"{value!r} holds a boolean")
    return np.asarray(value, dtype=np.float64)


def _holds_bool(value) -> bool:
    if isinstance(value, list):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def write_instance(inst: McoInstance, csv_path) -> None:
    """Write an instance table and its JSON sidecar, each atomically."""
    csv_path = Path(csv_path)
    header = ",".join(["x"] + [f"f{i+1}" for i in range(inst.d)])
    lines = [header]
    for x in range(inst.size):
        vals = ",".join(repr(float(v)) for v in inst.values[x])
        lines.append(f"{x},{vals}")
    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    info = {
        "n": inst.n,
        "d": inst.d,
        "lambda": None if inst.lam is None else [float(v) for v in inst.lam],
        "label_offset": inst.label_offset,
    }
    write_text_atomic(sidecar_path(csv_path), json.dumps(info, indent=2) + "\n")

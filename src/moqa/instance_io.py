"""Reading and writing instance tables.

Format: a CSV with header ``x,f1,...,fd`` and one row per domain index,
listed in ascending order from 0 to 2^n - 1, plus an optional JSON sidecar
``{"n": ..., "d": ..., "lambda": [...], "label_offset": ...}`` next to the
CSV (same stem, ``.json`` extension).
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InstanceFormatError
from .mco import McoInstance

# Characters of a table parsed in one slice by _parse_table.
_PARSE_CHARS = 1 << 16


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def csv_text(header: str, *columns) -> str:
    """CSV text, one row per entry of the columns; each cell is the repr of
    the Python int or float from .tolist(), so it reads back bit for bit."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def write_text_atomic(path, text: str) -> None:
    """Write text to path via a temp file next to it and a rename.

    A symlink's target is replaced, not the link.  An existing target that
    is not a regular file, such as a FIFO or a device, is written in place,
    as renaming over it would replace it.  The temp file gets mode 0o666
    less the umask, as open() would give it.
    """
    path = Path(path).resolve()
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
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
        InstanceFormatError: On a table or sidecar that is not UTF-8
            text, a field that csv.reader refuses (one longer than
            csv.field_size_limit()), malformed headers, gaps or duplicates
            in the index column, non-numeric or negative values, a row
            count that does not cover a full power-of-two domain, or a
            sidecar field that is not numeric, an n, d or label_offset that
            is not an integer, or an n or d that disagrees with the table.
    """
    csv_path = Path(csv_path)
    text = _read_utf8(csv_path, newline="")
    table = _parse_table(text)
    if table is None:
        table = _parse_rows(csv_path, text)
    size, d = table.shape
    if size & (size - 1) or size < 2:
        raise InstanceFormatError(
            f"{csv_path}: {size} rows do not cover a full 2^n domain"
        )

    lam, label_offset = None, 0
    meta = sidecar_path(csv_path)
    if meta != csv_path and meta.exists():  # a .json table has no sidecar
        try:
            info = json.loads(_read_utf8(meta))
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

    return McoInstance(table, lam, label_offset)


def _read_utf8(path: Path, newline=None) -> str:
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceFormatError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None


def _parse_table(text: str) -> np.ndarray | None:
    """The (N, d) values of a table that _parse_rows would accept, parsed
    as arrays, or None when the text needs _parse_rows.

    numpy casts each field with Python's int() and float(), so every
    spelling they accept reads the same.  The text is taken only when it
    has no quote or carriage return, so that csv.reader would split it at
    every comma and newline, its header is right, every body line holds
    exactly d + 1 fields, the index column is 0, 1, 2, ... and no value is
    negative.  Anything else, an unparsable field included, is left to
    _parse_rows, which raises the error it always has.
    """
    if '"' in text or "\r" in text:
        return None
    newline = text.find("\n")
    header = text[:newline].split(",")
    d = len(header) - 1
    if newline < 0 or d < 2 or header != ["x", *(f"f{i+1}" for i in range(d))]:
        return None
    stop = len(text) - text.endswith("\n")
    size = text.count("\n", newline + 1, stop) + 1
    index, table = np.empty(size, np.int64), np.empty((size, d + 1))
    # A slice of whole lines at a time, so that only one slice's
    # temporaries and field strings are alive at once.
    row, start = 0, newline + 1
    while row < size:
        end = text.find("\n", start + _PARSE_CHARS, stop)
        end = stop if end < 0 else end
        lines = text[start:end]
        # The commas and newlines in order: a newline must end every
        # (d+1)-th field and no other, and no field may outgrow csv's limit.
        raw = np.frombuffer(lines.encode(), np.uint8)
        at = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
        ends = np.flatnonzero(raw[at] == ord("\n"))
        if (at.size % (d + 1) != d or not np.array_equal(ends, np.arange(d, at.size, d + 1))
                or np.diff(at, prepend=-1, append=raw.size).max() > csv.field_size_limit() + 1):
            return None
        fields = lines.replace("\n", ",").split(",")
        rows = slice(row, row + len(fields) // (d + 1))
        try:
            index[rows] = np.array(fields[::d + 1], dtype=np.int64)
            table[rows] = np.array(fields, dtype=np.float64).reshape(-1, d + 1)
        except (ValueError, OverflowError):
            return None
        row, start = rows.stop, end + 1
    if not np.array_equal(index, np.arange(size)) or (table < 0).any():
        return None
    return np.ascontiguousarray(table[:, 1:])


def _parse_rows(csv_path: Path, text: str) -> np.ndarray:
    """The table's values, read row by row with csv.reader; raises
    InstanceFormatError at the first malformed line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
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
                    raise InstanceFormatError(f"{csv_path}:{lineno}: duplicate index {x}")
                raise InstanceFormatError(
                    f"{csv_path}:{lineno}: index {x} out of order; "
                    f"expected {len(rows)} (gaps are not allowed)"
                )
            if any(v < 0 for v in vals):
                raise InstanceFormatError(f"{csv_path}:{lineno}: negative objective value")
            rows.append(vals)
        if not rows:
            raise InstanceFormatError(f"{csv_path}: no data rows")
        return np.asarray(rows)
    except csv.Error as exc:
        raise InstanceFormatError(f"{csv_path}:{reader.line_num}: {exc}") from None


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
    """Write an instance table and its JSON sidecar, each atomically.

    Raises:
        ConfigurationError: Before any write, when csv_path is its own
            sidecar path, as a .json path is.
    """
    csv_path = Path(csv_path)
    if sidecar_path(csv_path) == csv_path:
        raise ConfigurationError(f"{csv_path}: a table path must not be its sidecar's path")
    header = ",".join(["x"] + [f"f{i+1}" for i in range(inst.d)])
    write_text_atomic(csv_path, csv_text(header, np.arange(inst.size), *inst.values.T))
    info = {
        "n": inst.n,
        "d": inst.d,
        "lambda": None if inst.lam is None else [float(v) for v in inst.lam],
        "label_offset": inst.label_offset,
    }
    write_text_atomic(sidecar_path(csv_path), json.dumps(info, indent=2) + "\n")

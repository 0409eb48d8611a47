"""Command-line interface tests: exit codes, payload schemas, file formats.

Commands run in-process through main(). Outputs that do not depend on the
BLAS build are pinned byte for byte against files in tests/golden/; for the
others the key order is pinned. Two smoke tests run the packaging
entry points in a separate process: the `moqa` console script (the installed
executable, or else the `[project.scripts]` target declared in
pyproject.toml) and `python -m moqa`.
"""

import json
import os
import re
import shutil
import stat
import subprocess
import sys
import threading
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate as check_schema

import moqa
from moqa import (
    GapCurve,
    McoInstance,
    MoqaError,
    cli,
    errors,
    write_histogram_csv,
    write_instance,
)
from moqa.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNRESOLVABLE,
    EXIT_VALIDATION,
    main,
)


REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def load_schema(name: str) -> dict:
    ref = resources.files("moqa.schemas") / f"{name}.schema.json"
    return json.loads(ref.read_text())


def run_json(tmp_path, *argv) -> tuple[int, dict]:
    out = tmp_path / "payload.json"
    code = main([*argv, "--output", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture
def tie_csv(tmp_path):
    """Rows 1 and 3 tie at equal weights without being equal vectors."""
    inst = McoInstance(
        np.array([[0.0, 5.0], [1.2, 2.8], [4.2, 0.0], [2.0, 2.0]]),
        lam=np.array([1.0, 1.0]),
    )
    path = tmp_path / "tie.csv"
    write_instance(inst, path)
    return str(path)


@pytest.fixture
def d3_csv(tmp_path):
    """Row 3 ties rows 0 and 1 only under a weighting with a zero entry."""
    inst = McoInstance(
        np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.5, 0.5, 2.0]])
    )
    path = tmp_path / "d3.csv"
    write_instance(inst, path)
    return str(path)


@pytest.fixture
def collinear_csv(tmp_path):
    """Rows 1-3 lie inside the hull edge from row 0 to row 4, row 6 repeats
    row 1, row 5 is a knee above the hull and row 7 is dominated."""
    inst = McoInstance(
        np.array([[0.0, 4.0], [1.0, 3.0], [2.0, 2.0], [3.0, 1.0], [4.0, 0.0],
                  [1.5, 2.9], [1.0, 3.0], [5.0, 5.0]])
    )
    path = tmp_path / "collinear.csv"
    write_instance(inst, path)
    return str(path)


@pytest.fixture
def d3_ties_csv(tmp_path):
    """Rows 0 and 7 and rows 3 and 5 are duplicated front rows; rows 0, 1,
    2, 6 and 7 share the sum 6 with row 4, which row 3 dominates."""
    inst = McoInstance(
        np.array([[0.0, 2.0, 4.0], [4.0, 2.0, 0.0], [2.0, 0.0, 4.0], [1.0, 1.0, 1.0],
                  [2.0, 2.0, 2.0], [1.0, 1.0, 1.0], [3.0, 3.0, 0.0], [0.0, 2.0, 4.0]])
    )
    path = tmp_path / "d3_ties.csv"
    write_instance(inst, path)
    return str(path)


@pytest.fixture
def twin_csv(tmp_path):
    """Rows 1 and 3 are identical vectors; they are not neighbors, so the
    adjacent-scope validation still passes."""
    inst = McoInstance(
        np.array([[0.0, 5.0], [2.0, 2.0], [4.5, 0.0], [2.0, 2.0]]),
        lam=np.array([1.0, 1.0]),
    )
    path = tmp_path / "twin.csv"
    write_instance(inst, path)
    return str(path)


# ---------------------------------------------------------------------------
# validate


def test_validate_builtin_passes(tmp_path):
    code, payload = run_json(tmp_path, "validate", "--builtin")
    assert code == EXIT_OK
    assert payload["pass"] is True
    assert payload["n"] == 7
    check_schema(instance=payload, schema=load_schema("validate"))


def test_validate_failure_exit_code(tmp_path):
    code, payload = run_json(
        tmp_path, "validate", "--builtin", "--lambda", "9,9"
    )
    assert code == EXIT_VALIDATION
    assert payload["pass"] is False


def test_validate_negative_lambda_rejected(capsys):
    # argparse reads "-1,-1" after a space as an option (a usage error);
    # "--lambda=-1,-1" reaches the instance, which rejects the entries.
    assert main(["validate", "--builtin", "--lambda", "-1,-1"]) == EXIT_IO
    assert main(["validate", "--builtin", "--lambda=-1,-1"]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("\nerror: separation entries must be positive\n")


def test_validate_all_scope_flag(tmp_path):
    code, payload = run_json(
        tmp_path, "validate", "--builtin", "--collision-scope", "all"
    )
    assert code == EXIT_VALIDATION
    assert payload["report"]["collision_scope"] == "all"


def test_validate_stdout_when_no_output(capsys):
    code = main(["validate", "--builtin"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_lambda_flag_only_where_read(tmp_path, tie_csv, capsys):
    # front and evolve never read the separation vector, so they take no
    # --lambda; validate, gap-scan and resolve do.
    assert main(["front", tie_csv, "--lambda", "1,1"]) == EXIT_IO
    assert main(["evolve", tie_csv, "--w", "0.25", "--T", "5",
                 "--lambda", "1,1"]) == EXIT_IO
    assert "unrecognized arguments: --lambda 1,1" in capsys.readouterr().err
    code, payload = run_json(tmp_path, "validate", tie_csv, "--lambda", "9,9")
    assert (code, payload["lambda"]) == (EXIT_VALIDATION, [9.0, 9.0])
    code, payload = run_json(tmp_path, "gap-scan", tie_csv, "--w", "0.25",
                             "--points", "4", "--lambda", "0.5,0.5",
                             "--curve", str(tmp_path / "c.csv"))
    assert (code, payload["diagnostics"]["separations"]) == (EXIT_OK, [0.5, 0.5])
    code, payload = run_json(tmp_path, "resolve", tie_csv, "--w", "0.5",
                             "--lambda", "0.5,0.5")
    assert (code, payload["chosen_label"]) == (EXIT_OK, 1)


def test_missing_file_is_io_error(tmp_path):
    code = main(["validate", str(tmp_path / "nope.csv")])
    assert code == EXIT_IO


def test_builtin_and_path_conflict(tmp_path, tie_csv):
    code = main(["validate", tie_csv, "--builtin"])
    assert code == EXIT_IO


def test_no_instance_at_all():
    code = main(["validate"])
    assert code == EXIT_IO


def test_unknown_flag_is_usage_error():
    code = main(["validate", "--builtin", "--frobnicate"])
    assert code == EXIT_IO


@pytest.mark.parametrize("sidecar", [
    {"n": "seven"},
    {"d": "three"},
    {"label_offset": "one"},
    {"lambda": "abc"},
    pytest.param({"n": 1.5}, id="n_fractional"),
    pytest.param({"d": 2.5}, id="d_fractional"),
    pytest.param({"label_offset": 1.7}, id="label_offset_fractional"),
    pytest.param({"n": True}, id="n_bool"),
    pytest.param({"label_offset": True}, id="label_offset_bool"),
    pytest.param({"lambda": [True, True]}, id="lambda_bool"),
], ids=lambda sidecar: next(iter(sidecar)))
def test_malformed_sidecar_is_format_error(tmp_path, capsys, sidecar):
    table = tmp_path / "t.csv"
    table.write_text("x,f1,f2\n0,0.0,1.0\n1,1.0,0.0\n")
    meta = tmp_path / "t.json"
    meta.write_text(json.dumps(sidecar))
    assert main(["validate", str(table)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {meta}: sidecar {next(iter(sidecar))}=")


# The reader's error contract: each message names the file, and the line
# where there is one.  A faster parser must keep these bytes.
TWO_ROWS = "x,f1,f2\n0,0.0,1.0\n1,1.0,0.0\n"


@pytest.mark.parametrize("table, sidecar, message", [
    ("", None, "{csv}: empty file"),
    ("x,f1,f2\n0,1.0\n", None, "{csv}:2: expected 3 fields, got 2"),
    ("x,f1,f2\n0,abc,1.0\n", None, "{csv}:2: could not convert string to float: 'abc'"),
    ("x,f1,f2\n", None, "{csv}: no data rows"),
    ("x,f1,f2\n0," + "0" * 131073 + ",1.0\n", None,
     "{csv}:2: field larger than field limit (131072)"),
    (TWO_ROWS, "oops", "{json}: Expecting value: line 1 column 1 (char 0)"),
    (TWO_ROWS, "[2, 2]", "{json}: sidecar must be a JSON object"),
    (TWO_ROWS, '{"d": 3}', "{json}: sidecar d=3 disagrees with 2 columns"),
], ids=["empty", "field_count", "unparsable", "no_rows", "field_limit", "sidecar_syntax",
        "sidecar_list", "sidecar_d"])
def test_reader_error_messages(tmp_path, capsys, table, sidecar, message):
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    csv_path.write_text(table)
    if sidecar is not None:
        json_path.write_text(sidecar)
    assert main(["front", str(csv_path)]) == EXIT_IO
    expected = message.format(csv=csv_path, json=json_path)
    assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("bad", ["csv", "sidecar"])
def test_non_utf8_input_is_format_error(tmp_path, capsys, bad):
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    csv_path.write_bytes(TWO_ROWS.encode() + (b"\xff\n" if bad == "csv" else b""))
    json_path.write_bytes(b'{"d": 2}' + (b"\xff" if bad == "sidecar" else b""))
    assert main(["validate", str(csv_path)]) == EXIT_IO
    path, at = (csv_path, len(TWO_ROWS)) if bad == "csv" else (json_path, 8)
    assert capsys.readouterr().err == (
        f"error: {path}: not UTF-8 text (invalid start byte at byte {at})\n"
    )


def test_front_of_huge_values_warns_nothing(tmp_path, capsys):
    # Cross products of 1e300-scale rows overflow unless the hull rescales.
    values = np.array([[0.0, 9.0], [1.0, 4.0], [4.0, 1.0], [9.0, 0.0],
                       [3.0, 3.0], [2.0, 7.0], [6.0, 5.0], [8.0, 8.0]])
    paths = []
    for scale in (1.0, 1e300):
        paths.append(tmp_path / f"t{scale:g}.csv")
        write_instance(McoInstance(values * scale), paths[-1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "moqa", "front", str(paths[1])],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert main(["front", str(paths[0])]) == EXIT_OK
    small = json.loads(capsys.readouterr().out)
    assert json.loads(proc.stdout)["supported"] == small["supported"] == [0, 1, 2, 3]


def test_reader_skips_blank_rows(tmp_path, capsys):
    fronts = []
    for name, table in [("plain", TWO_ROWS), ("blank", TWO_ROWS.replace("\n1,", "\n\n1,"))]:
        (tmp_path / f"{name}.csv").write_text(table)
        assert main(["front", str(tmp_path / f"{name}.csv")]) == EXIT_OK
        fronts.append(capsys.readouterr().out)
    assert fronts[0] == fronts[1]


def test_table_at_a_json_path_is_read_without_a_sidecar(tmp_path, capsys):
    # t.json's sidecar path is t.json itself: the table, not a sidecar.
    fronts = []
    for name in ("t.csv", "t.json"):
        (tmp_path / name).write_text(TWO_ROWS)
        assert main(["front", str(tmp_path / name)]) == EXIT_OK
        fronts.append(capsys.readouterr().out)
    assert fronts[0] == fronts[1]


def test_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise OSError("rename refused")

    (tmp_path / "t.csv").write_text(TWO_ROWS)
    monkeypatch.setattr(os, "replace", refuse)
    assert main(["front", str(tmp_path / "t.csv"), "--output", str(tmp_path / "o.json")]) == EXIT_IO
    assert capsys.readouterr().err == "error: rename refused\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["t.csv"]


def test_symlinked_output_replaces_its_target_and_keeps_the_link(tmp_path):
    # The temp file goes next to the link's target, in another directory
    # here, and the rename replaces the target, so the link stays a link.
    table, plain = tmp_path / "t.csv", tmp_path / "plain.json"
    table.write_text(TWO_ROWS)
    (tmp_path / "data").mkdir()
    target, link = tmp_path / "data" / "real.json", tmp_path / "link.json"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main(["front", str(table), "--output", str(link)]) == EXIT_OK
    assert main(["front", str(table), "--output", str(plain)]) == EXIT_OK
    assert link.is_symlink() and link.readlink() == target
    assert target.read_bytes() == plain.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data", "link.json", "plain.json",
                                                                "t.csv"]
    assert [path.name for path in target.parent.iterdir()] == ["real.json"]


def test_fifo_output_is_written_in_place(tmp_path):
    # A rename over the FIFO would replace it, and its reader would get no
    # bytes.  The test holds the FIFO open for reading and writing, so no
    # open of it waits and the reader sees end of file only once that end
    # is closed, after the command has run.
    table, plain, fifo = tmp_path / "t.csv", tmp_path / "plain.json", tmp_path / "fifo.json"
    table.write_text(TWO_ROWS)
    os.mkfifo(fifo)
    holder = os.open(fifo, os.O_RDWR)
    opened, read = threading.Event(), []

    def reader():
        with open(fifo, "rb") as fh:
            opened.set()
            read.append(fh.read())

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    try:
        assert opened.wait(30)
        code = main(["front", str(table), "--output", str(fifo)])
    finally:
        os.close(holder)
        thread.join(30)
    assert code == EXIT_OK
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert main(["front", str(table), "--output", str(plain)]) == EXIT_OK
    assert read == [plain.read_bytes()]


# ---------------------------------------------------------------------------
# front


def test_front_builtin_labels(tmp_path):
    code, payload = run_json(tmp_path, "front", "--builtin")
    assert code == EXIT_OK
    assert payload["pareto"] == list(range(39, 80))
    assert payload["pareto_labels"] == list(range(40, 81))
    assert payload["trivial_labels"] == [40, 80]
    assert payload["method"] == "hull"
    check_schema(instance=payload, schema=load_schema("front"))


def test_front_partitions_front(tmp_path, tie_csv):
    code, payload = run_json(tmp_path, "front", tie_csv)
    assert code == EXIT_OK
    assert set(payload["supported"]) | set(payload["nonsupported"]) == set(
        payload["pareto"]
    )


# ---------------------------------------------------------------------------
# exact output


# golden file stem -> command line; TIE, D3, D3TIES and COLLINEAR stand for
# the tie_csv, d3_csv, d3_ties_csv and collinear_csv fixtures' paths
GOLDEN_RUNS = {
    "validate_builtin": ["validate", "--builtin"],
    "front_builtin": ["front", "--builtin"],
    "front_d3": ["front", "D3"],
    "front_d3_ties": ["front", "D3TIES"],
    "front_collinear": ["front", "COLLINEAR"],
    "resolve_tie": ["resolve", "TIE", "--w", "0.5"],
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_output_bytes_match_golden(capsys, tie_csv, d3_csv, d3_ties_csv, collinear_csv,
                                   name):
    paths = {"TIE": tie_csv, "D3": d3_csv, "D3TIES": d3_ties_csv,
             "COLLINEAR": collinear_csv}
    code = main([paths.get(a, a) for a in GOLDEN_RUNS[name]])
    assert code == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_gap_scan_key_order(tmp_path, tie_csv):
    _, payload = run_json(
        tmp_path, "gap-scan", tie_csv, "--w", "0.25", "--points", "8",
        "--curve", str(tmp_path / "c.csv"),
    )
    assert list(payload) == [
        "n", "d", "label_offset", "weights", "initial_scale", "points", "g_min",
        "s_at_min", "gap_at_start", "gap_at_end", "delta_max", "runtime",
        "diagnostics", "curve_csv",
    ]
    assert list(payload["runtime"]) == [
        "g_min", "delta_max", "delta", "gap_floor", "t_heuristic", "t_rigorous",
    ]
    assert list(payload["diagnostics"]) == [
        "weights", "separations", "min_weighted_value", "second_weighted_value",
        "end_gap", "weighted_separation", "minimizer", "tied_minimizers",
        "minimizer_is_trivial", "min_exceeds_weighted_separation",
        "end_gap_meets_weighted_separation", "scan_g_min",
        "min_gap_attained_at_end", "minimizer_label",
    ]


def test_evolve_key_order(tmp_path, tie_csv):
    _, payload = run_json(
        tmp_path, "evolve", tie_csv, "--w", "0.25", "--T", "5", "--steps", "4"
    )
    assert list(payload) == [
        "n", "d", "label_offset", "weights", "initial_scale", "result",
        "target_label", "shots", "seed", "histogram_csv",
    ]
    assert list(payload["result"]) == [
        "dim", "total_time", "steps", "norm_drift", "target_index",
        "ground_fidelity", "degenerate_target", "distribution",
    ]


# payload schema name -> command line; D3 stands for a 4-row d = 3 table
SCHEMA_RUNS = [
    ("validate", ["validate", "--builtin"]),
    ("front", ["front", "--builtin"]),
    ("front", ["front", "D3"]),
    ("gap_scan", ["gap-scan", "--builtin", "--w", "0.57", "--points", "8",
                  "--curve", "CURVE"]),
    ("resolve", ["resolve", "--builtin", "--w", "0.57"]),
    ("evolve", ["evolve", "--builtin", "--w", "0.57", "--T", "5", "--steps", "4",
                "--shots", "3", "--seed", "1", "--histogram", "HIST"]),
]


def assert_keys_required(payload, schema, where="payload"):
    """Every object that the schema gives a required list carries exactly
    those keys, at the top level and in nested objects."""
    if not isinstance(payload, dict):
        return
    if "required" in schema:
        assert set(payload) == set(schema["required"]), where
    for key, sub in schema.get("properties", {}).items():
        if key in payload:
            assert_keys_required(payload[key], sub, f"{where}.{key}")
    for branch in schema.get("oneOf", []):
        if branch.get("type") == "object":
            assert_keys_required(payload, branch, where)


@pytest.mark.parametrize("schema_name, argv", SCHEMA_RUNS,
                         ids=[" ".join(a[:2]) for _, a in SCHEMA_RUNS])
def test_payloads_match_their_schemas(tmp_path, schema_name, argv):
    d3 = tmp_path / "d3.csv"
    write_instance(McoInstance(np.array(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.5, 0.5, 2.0]]
    )), d3)
    paths = {"D3": str(d3), "CURVE": str(tmp_path / "c.csv"),
             "HIST": str(tmp_path / "h.csv")}
    code, payload = run_json(tmp_path, *[paths.get(a, a) for a in argv])
    assert code == EXIT_OK
    schema = load_schema(schema_name)
    check_schema(instance=payload, schema=schema)
    assert_keys_required(payload, schema)


# ---------------------------------------------------------------------------
# gap-scan


def test_gap_scan_payload_and_curve(tmp_path):
    curve = tmp_path / "curve.csv"
    out = tmp_path / "scan.json"
    code = main(
        [
            "gap-scan",
            "--builtin",
            "--w",
            "0.57",
            "--points",
            "64",
            "--curve",
            str(curve),
            "--output",
            str(out),
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    check_schema(instance=payload, schema=load_schema("gap_scan"))
    assert payload["weights"] == [0.57, 1.0 - 0.57]
    assert payload["points"] == 64
    assert payload["diagnostics"]["minimizer_label"] == 59
    lines = curve.read_text().splitlines()
    assert lines[0] == "s,lambda0,lambda1,gap"
    assert len(lines) == 65
    float(lines[1].split(",")[3])  # numeric, not a numpy repr


def test_gap_scan_weight_shorthand_equivalent(tmp_path):
    _, a = run_json(
        tmp_path, "gap-scan", "--builtin", "--w", "0.57", "--points", "32",
        "--curve", str(tmp_path / "a.csv"),
    )
    _, b = run_json(
        tmp_path, "gap-scan", "--builtin", "--w", "0.57,0.43", "--points", "32",
        "--curve", str(tmp_path / "b.csv"),
    )
    assert a["g_min"] == pytest.approx(b["g_min"], rel=1e-10)
    assert a["weights"] == pytest.approx(b["weights"], abs=1e-12)


def test_gap_scan_multiple_weights_suffixed_outputs(tmp_path):
    out = tmp_path / "scan.json"
    curve = tmp_path / "curve.csv"
    code = main(
        [
            "gap-scan", "--builtin",
            "--w", "0.3", "--w", "0.7",
            "--points", "16",
            "--curve", str(curve),
            "--output", str(out),
        ]
    )
    assert code == EXIT_OK
    for k in (0, 1):
        assert (tmp_path / f"scan.w{k}.json").exists()
        assert (tmp_path / f"curve.w{k}.csv").exists()
    a = json.loads((tmp_path / "scan.w0.json").read_text())
    b = json.loads((tmp_path / "scan.w1.json").read_text())
    assert a["weights"] == pytest.approx([0.3, 0.7], abs=1e-12)
    assert b["weights"] == pytest.approx([0.7, 0.3], abs=1e-12)


def test_gap_scan_without_lambda_omits_diagnostics(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("x,f1,f2\n0,0.0,0.4\n1,1.0,1.2\n2,2.0,0.9\n3,2.5,2.5\n")
    code, payload = run_json(
        tmp_path, "gap-scan", str(plain), "--w", "0.5", "--points", "16",
        "--curve", str(tmp_path / "c.csv"),
    )
    assert code == EXIT_OK
    assert payload["diagnostics"] is None


def test_gap_scan_degenerate_end_is_numerical_failure(tmp_path, twin_csv):
    # identical tied rows give a zero end gap, so the runtime estimate
    # cannot be formed
    code = main(
        ["gap-scan", twin_csv, "--w", "0.5", "--points", "16",
         "--curve", str(tmp_path / "c.csv")]
    )
    assert code == EXIT_NUMERICAL


@pytest.mark.parametrize("rows, code", [
    ([(0.0, 0.0), (1e-60, 1e-60), (5.0, 5.0), (6.0, 6.0)], EXIT_OK),
    ([(0.0, 0.0), (1e-76, 1e-76), (5.0, 5.0), (6.0, 6.0)], EXIT_NUMERICAL),
    ([(0.0, 0.0), (1e-90, 1e-90), (5.0, 5.0), (6.0, 6.0)], EXIT_NUMERICAL),
    ([(k * 1e200, k * 1e200) for k in range(8)], EXIT_NUMERICAL),
], ids=["finite", "infinite", "underflow", "overflow"])
def test_gap_scan_estimates_outside_float_range(tmp_path, capsys, rows, code):
    table = tmp_path / "t.csv"
    table.write_text("x,f1,f2\n" + "".join(
        f"{x},{f1!r},{f2!r}\n" for x, (f1, f2) in enumerate(rows)))
    assert main(["gap-scan", str(table), "--w", "0.5", "--points", "8",
                 "--curve", str(tmp_path / "c.csv")]) == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
    else:
        assert err.startswith("numerical failure: ") and "Traceback" not in err


def test_failed_gap_scan_leaves_no_curve(tmp_path, capsys):
    # The 1e-300 end gap makes the runtime estimate overflow.
    table = tmp_path / "t.csv"
    table.write_text("x,f1,f2\n0,0.0,1e-300\n1,1e-300,0.0\n2,1.0,1.0\n3,2.0,2.0\n")
    curve, out = tmp_path / "c.csv", tmp_path / "scan.json"
    assert main(["gap-scan", str(table), "--w", "0.5", "--points", "8",
                 "--curve", str(curve), "--output", str(out)]) == EXIT_NUMERICAL
    assert not curve.exists() and not out.exists()
    # A later weighting's failure keeps the files of the earlier ones.
    assert main(["gap-scan", "--builtin", "--w", "0.57", "--w", "forty", "--points", "8",
                 "--curve", str(curve), "--output", str(out)]) == EXIT_IO
    assert (tmp_path / "c.w0.csv").exists() and (tmp_path / "scan.w0.json").exists()
    assert not (tmp_path / "c.w1.csv").exists()


def test_gap_scan_bad_weights_parse(tmp_path):
    # an empty field is an error, not a value to skip: "0.6," is not "0.6"
    for text in ["forty", "0.6,", ",0.6", "0.2,,0.8"]:
        code = main(
            ["gap-scan", "--builtin", "--w", text, "--curve", str(tmp_path / "c.csv")]
        )
        assert code == EXIT_IO, text
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("delta", ["2", "0", "nan"])
def test_gap_scan_bad_delta_rejected_before_the_scan(tmp_path, monkeypatch, delta):
    def scan_ran(*args, **kwargs):
        raise AssertionError("gap_scan ran")

    monkeypatch.setattr(cli, "gap_scan", scan_ran)
    curve = tmp_path / "c.csv"
    code = main(["gap-scan", "--builtin", "--w", "0.57", "--points", "8",
                 "--delta", delta, "--curve", str(curve)])
    assert code == EXIT_IO
    assert not curve.exists()


# ---------------------------------------------------------------------------
# resolve


def test_resolve_tie_certificate(tmp_path, tie_csv):
    code, payload = run_json(tmp_path, "resolve", tie_csv, "--w", "0.5")
    assert code == EXIT_OK
    check_schema(instance=payload, schema=load_schema("resolve"))
    cert = payload["certificate"]
    assert cert["tied_indices"] == [1, 3]
    assert cert["chosen_index"] in (1, 3)
    assert cert["l1_distance"] <= cert["radius"]


def test_resolve_degeneracy_tol_widens_the_tie(tmp_path):
    # rows 0 and 1 score 5.0 and 5.0 + 1e-7 at equal weights
    table = tmp_path / "near.csv"
    table.write_text(f"x,f1,f2\n0,0.0,10.0\n1,{10.0 + 2e-7!r},0.0\n"
                     "2,20.0,20.0\n3,30.0,30.0\n")
    argv = ["resolve", str(table), "--w", "0.5", "--lambda", "1,1"]
    code, narrow = run_json(tmp_path, *argv)
    assert (code, narrow["certificate"]["tied_indices"]) == (EXIT_OK, [0])
    assert narrow["certificate"]["l1_distance"] == 0.0
    code, wide = run_json(tmp_path, *argv, "--degeneracy-tol", "1e-6")
    cert = wide["certificate"]
    assert (code, cert["tied_indices"]) == (EXIT_OK, [0, 1])
    assert cert["chosen_index"] in (0, 1)
    assert 0.0 < cert["l1_distance"] <= cert["radius"]


def test_resolve_requires_separation_vector(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("x,f1,f2\n0,0.0,0.4\n1,1.0,1.2\n2,2.0,0.9\n3,2.5,2.5\n")
    code = main(["resolve", str(plain), "--w", "0.5"])
    assert code == EXIT_IO


def test_resolve_validation_gate(tmp_path, tie_csv):
    code = main(["resolve", tie_csv, "--w", "0.5", "--lambda", "9,9"])
    assert code == EXIT_VALIDATION


def test_resolve_equivalent_rows_unresolvable(tmp_path, twin_csv):
    code = main(["resolve", twin_csv, "--w", "0.5"])
    assert code == EXIT_UNRESOLVABLE


def test_resolve_radius_too_small_is_numerical(tmp_path, tie_csv):
    code = main(["resolve", tie_csv, "--w", "0.5", "--lambda", "1e-12,1e-12"])
    assert code == EXIT_NUMERICAL


def test_tolerance_environment_variable_is_ignored(capsys, tie_csv, monkeypatch):
    # The tie tolerance is set by --degeneracy-tol only.
    assert main(["resolve", tie_csv, "--w", "0.5"]) == EXIT_OK
    plain = capsys.readouterr()
    monkeypatch.setenv("MOQA_DEGENERACY_TOL", "nan")
    assert main(["resolve", tie_csv, "--w", "0.5"]) == EXIT_OK
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [["resolve", "--w", "0.5"], ["evolve", "--w", "0.25", "--T", "5", "--steps", "4"]],
    ids=["resolve-flag", "evolve-flag"],
)
def test_non_finite_tolerance_rejected(tmp_path, tie_csv, command, value):
    out = tmp_path / "o.json"
    argv = [command[0], tie_csv, *command[1:], "--degeneracy-tol", value]
    assert main([*argv, "--output", str(out)]) == EXIT_IO
    assert not out.exists()


# ---------------------------------------------------------------------------
# evolve


def test_evolve_payload_and_histogram(tmp_path, tie_csv):
    hist = tmp_path / "hist.csv"
    out = tmp_path / "evo.json"
    code = main(
        [
            "evolve", tie_csv,
            "--w", "0.25",
            "--T", "120",
            "--steps", "512",
            "--shots", "200",
            "--seed", "11",
            "--histogram", str(hist),
            "--output", str(out),
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    check_schema(instance=payload, schema=load_schema("evolve"))
    assert payload["result"]["steps"] == 512
    assert payload["result"]["ground_fidelity"] >= 0.5
    lines = hist.read_text().splitlines()
    assert lines[0] == "x,count,probability"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 200


def test_evolve_seeded_reproducibility(tmp_path, tie_csv):
    paths = []
    for name in ("a", "b"):
        hist = tmp_path / f"{name}.csv"
        code = main(
            ["evolve", tie_csv, "--w", "0.25", "--T", "20", "--steps", "64",
             "--shots", "100", "--seed", "3", "--histogram", str(hist)]
        )
        assert code == EXIT_OK
        paths.append(hist.read_text())
    assert paths[0] == paths[1]


def test_evolve_requires_duration(tie_csv):
    code = main(["evolve", tie_csv, "--w", "0.25"])
    assert code == EXIT_IO


def test_evolve_negative_shots_rejected_before_the_schedule(
    tmp_path, tie_csv, monkeypatch
):
    def schedule_ran(*args, **kwargs):
        raise AssertionError("evolve ran")

    monkeypatch.setattr(cli, "evolve", schedule_ran)
    out = tmp_path / "evo.json"
    code = main(["evolve", tie_csv, "--w", "0.25", "--T", "5", "--shots", "-1",
                 "--output", str(out)])
    assert code == EXIT_IO
    assert not out.exists()


def test_evolve_negative_seed_rejected_before_the_schedule(
    tmp_path, tie_csv, monkeypatch
):
    def schedule_ran(*args, **kwargs):
        raise AssertionError("evolve ran")

    monkeypatch.setattr(cli, "evolve", schedule_ran)
    out = tmp_path / "evo.json"
    code = main(["evolve", tie_csv, "--w", "0.25", "--T", "5", "--shots", "5",
                 "--seed", "-1", "--output", str(out)])
    assert code == EXIT_IO
    assert not out.exists()


@pytest.mark.parametrize("command", ["gap-scan", "evolve"])
def test_bool_initial_scale_is_refused_with_exit_1(tmp_path, monkeypatch, capsys, command):
    # --initial-scale parses as a float, so a bool can only arrive as the
    # default; InitialHamiltonian refuses it instead of running at scale 1.0.
    # main keeps one parser per process, so this test builds its own.
    monkeypatch.setattr(cli, "DEFAULT_INITIAL_SCALE", True)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    out, curve = tmp_path / "out.json", tmp_path / "curve.csv"
    extra = {"gap-scan": ["--points", "8", "--curve", str(curve)], "evolve": ["--T", "5"]}
    code = main([command, "--builtin", "--w", "0.5", *extra[command], "--output", str(out)])
    assert code == EXIT_IO
    assert capsys.readouterr().err == "error: scale must be positive and finite\n"
    assert not out.exists() and not curve.exists()


def test_evolve_overflowing_phases_is_numerical_failure(tmp_path, capsys):
    out, hist = tmp_path / "evo.json", tmp_path / "hist.csv"
    code = main(["evolve", "--builtin", "--w", "0.5", "--T", "1e308", "--steps", "1",
                 "--histogram", str(hist), "--output", str(out)])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: ")
    assert captured.out == ""
    assert not out.exists() and not hist.exists()


def test_evolve_no_shots_no_histogram(tmp_path, tie_csv):
    code, payload = run_json(
        tmp_path, "evolve", tie_csv, "--w", "0.25", "--T", "5", "--steps", "16"
    )
    assert code == EXIT_OK
    assert payload["histogram_csv"] is None


# ---------------------------------------------------------------------------
# exit codes


def readme_exit_codes() -> dict:
    """Error class name -> (exit code, stderr prefix), from the README's
    exit-code table."""
    table = {}
    for line in (REPO / "README.md").read_text().splitlines():
        row = re.match(r"\| `(\d)` \| [^|]* \| `?([^|`]*)`? \| (.*) \|$", line)
        if row:
            for name in re.findall(r"`(?:\w+\.)*(\w+Error)`", row.group(3)):
                table[name] = (int(row.group(1)), row.group(2))
    return table


ERROR_CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, MoqaError)
]


@pytest.mark.parametrize(
    "exc",
    [
        *(cls("boom") for cls in ERROR_CLASSES),
        OSError("boom"),
        json.JSONDecodeError("boom", "", 0),
        np.linalg.LinAlgError("boom"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_exit_codes_match_readme_table(monkeypatch, capsys, exc):
    code, prefix = readme_exit_codes()[type(exc).__name__]
    if isinstance(exc, MoqaError):
        assert exc.exit_code == code

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "validate", fail)
    assert main(["validate", "--builtin"]) == code
    assert capsys.readouterr().err == f"{prefix} {exc}\n"


# ---------------------------------------------------------------------------
# bench export and round trip


def test_bench_export_round_trip(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["bench", "export", "--output", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "x,f1,f2"
    assert len(lines) == 129
    code2 = main(["validate", str(out)])
    assert code2 == EXIT_OK
    sidecar = json.loads((tmp_path / "table.json").read_text())
    assert sidecar["label_offset"] == 1
    assert sidecar["lambda"] == [0.2, 0.4]


def test_bench_export_refuses_a_table_path_that_is_its_own_sidecar(tmp_path, capsys):
    # table.json's sidecar path is table.json, so the sidecar would replace
    # the table; nothing is written.
    out = tmp_path / "table.json"
    assert main(["bench", "export", "--output", str(out)]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"error: {out}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shots", [0, 1, 1000])
def test_csv_writers_match_per_row_formatting(tmp_path, shots):
    # Reference: each writer's per-row formatting before the shared encoder.
    def text(lines):
        return "\n".join(lines) + "\n"

    values = np.array([[0.0, 5e-324], [1e308, -0.0], [0.1, 1 / 3], [2.5, 7.0]])
    write_instance(McoInstance(values), tmp_path / "i.csv")
    rows = [f"{x},{float(a)!r},{float(b)!r}" for x, (a, b) in enumerate(values)]
    assert (tmp_path / "i.csv").read_text() == text(["x,f1,f2", *rows])

    counts = np.random.default_rng(shots).multinomial(shots, [0.5, 0.25, 0.125, 0.125])
    write_histogram_csv(counts, tmp_path / "h.csv")
    rows = [f"{x},{int(c)},{(int(c) / shots) if shots else 0.0!r}" for x, c in enumerate(counts)]
    assert (tmp_path / "h.csv").read_text() == text(["x,count,probability", *rows])

    f1, f2 = values.T
    curve = GapCurve(np.linspace(0.0, 1.0, 4), f1, f2, f2 - f1)
    curve.to_csv(tmp_path / "c.csv")
    rows = [
        ",".join(f"{float(v)!r}" for v in row)
        for row in zip(curve.s_values, curve.lambda0, curve.lambda1, curve.gap)
    ]
    assert (tmp_path / "c.csv").read_text() == text(["s,lambda0,lambda1,gap", *rows])


def test_written_files_get_the_mode_open_gives(tmp_path):
    # Files go through a temp file and a rename; they still get the umask's
    # mode, also where they replace a file that had another mode.
    old_umask = os.umask(0o022)
    try:
        plain = tmp_path / "plain.txt"
        plain.write_text("x\n")
        out = tmp_path / "table.csv"
        out.write_text("old\n")
        out.chmod(0o600)
        assert main(["bench", "export", "--output", str(out)]) == EXIT_OK
    finally:
        os.umask(old_umask)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"plain.txt": 0o644, "table.csv": 0o644, "table.json": 0o644}


# ---------------------------------------------------------------------------
# packaging entry points


PYPROJECT = REPO / "pyproject.toml"

# What a generated console-script wrapper does: load the entry point, name
# the program, call it and exit with its return value. argv[1] is the
# entry-point target, the rest is the command line.
CONSOLE_SCRIPT = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint(name="moqa", value=sys.argv[1], group="console_scripts").load()
sys.argv = ["moqa", *sys.argv[2:]]
sys.exit(main())
"""


def load_pyproject() -> dict:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def child_env() -> dict:
    """Environment that makes a child interpreter import the same moqa
    package as this process, whatever PYTHONPATH the suite was run with."""
    env = dict(os.environ)
    src = str(Path(moqa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_smoke():
    """`moqa validate --builtin` through the console-script entry point.

    With the package installed, the `moqa` executable on PATH is run. From
    a checkout that is not installed there is no such executable, so the
    `[project.scripts]` target is read from pyproject.toml and run through
    sys.executable the way the generated wrapper would run it; a target
    that does not resolve fails the test. Either way the child must exit 0
    and print a passing JSON report.
    """
    exe = shutil.which("moqa")
    if exe is not None:
        argv, env = [exe], None
    else:
        target = load_pyproject()["project"]["scripts"]["moqa"]
        argv, env = [sys.executable, "-c", CONSOLE_SCRIPT, target], child_env()
    proc = subprocess.run(
        [*argv, "validate", "--builtin"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "moqa", "--version"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert "moqa" in proc.stdout


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.linalg"])
def test_cli_import_leaves_scipy_module_unloaded(module):
    # No module in the package imports scipy; the tests use it as an oracle.
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, moqa.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# Runs in a child whose import of any scipy module raises ImportError.  The
# calls table must name every public function, and each CLI subcommand must
# exit 0.
NO_SCIPY_SCRIPT = """
import contextlib, inspect, os, sys
sys.modules["scipy"] = None
import numpy as np
import moqa
from moqa.cli import main

out, tie_csv, d3_csv = sys.argv[1:]
inst = moqa.builtin_instance()
w = moqa.Linearization.pair(0.57)
hw = moqa.build_final(inst, w)
drivers = [moqa.build_initial(inst.n),
           moqa.build_initial(inst.n, h_values=np.r_[0.0, np.linspace(1.0, 2.0, hw.dim - 1)])]
tie = moqa.read_instance(tie_csv)
params = moqa.TwoParabolasParams(n=4, x0=4, x0p=11, curvature1=(1.0, 2.0),
                                 curvature2=(1.5, 3.0), lam=(0.5, 0.75), seed=1)
mat = np.random.default_rng(0).normal(size=(8, 8))
calls = {
    "build_final": lambda: moqa.build_final(inst, moqa.Linearization.pair(0.25)),
    "build_initial": lambda: moqa.build_initial(2, scale=2.0),
    "builtin_instance": moqa.builtin_instance,
    "commutes": lambda: [moqa.commutes(h0, hw) for h0 in drivers],
    "degeneracy_check": lambda: moqa.degeneracy_check(hw),
    "delta_max": lambda: [moqa.delta_max(h0, hw) for h0 in drivers],
    "end_gap_diagnostics": lambda: moqa.end_gap_diagnostics(inst, w),
    "equivalent": lambda: moqa.equivalent(inst, 0, 1),
    "evolve": lambda: [moqa.evolve(h0, hw, 50.0, steps=8) for h0 in drivers],
    "gap_scan": lambda: [moqa.gap_scan(h0, hw, points=16) for h0 in drivers],
    "generate": lambda: moqa.generate(params),
    "hadamard_transform": lambda: moqa.hadamard_transform(np.ones(8)),
    "initial_ground_state": lambda: moqa.initial_ground_state(3),
    "l1_radius": lambda: moqa.l1_radius(inst, w),
    "measure": lambda: moqa.measure(moqa.initial_ground_state(3), 10, seed=0),
    "pareto_front": lambda: moqa.pareto_front(inst),
    "read_instance": lambda: moqa.read_instance(tie_csv),
    "resolve": lambda: moqa.resolve(tie, moqa.Linearization.pair(0.5)),
    "runtime_estimate": lambda: moqa.runtime_estimate(0.5, 8.0),
    "scalarize": lambda: moqa.scalarize(inst, w),
    "smallest_two": lambda: moqa.smallest_two(moqa.HermitianOperator(mat + mat.T)),
    "supported_solutions": lambda: [moqa.supported_solutions(inst),
                                    moqa.supported_solutions(moqa.read_instance(d3_csv))],
    "trivial_solutions": lambda: moqa.trivial_solutions(inst),
    "uniform_grid": lambda: moqa.uniform_grid(8),
    "validate": lambda: moqa.validate(inst, collision_scope="all"),
    "verify_two_parabolas": lambda: moqa.verify_two_parabolas(
        inst, moqa.BUILTIN_X0, moqa.BUILTIN_X0P),
    "write_histogram_csv": lambda: moqa.write_histogram_csv(
        np.arange(8), os.path.join(out, "counts.csv")),
    "write_instance": lambda: moqa.write_instance(inst, os.path.join(out, "inst.csv")),
}
public = {name for name in moqa.__all__ if inspect.isfunction(getattr(moqa, name))}
assert set(calls) == public, sorted(set(calls) ^ public)
for call in calls.values():
    call()
commands = [["validate", "--builtin"], ["front", "--builtin"], ["front", d3_csv],
            ["gap-scan", "--builtin", "--w", "0.57", "--points", "16",
             "--curve", os.path.join(out, "curve.csv")],
            ["resolve", tie_csv, "--w", "0.5"],
            ["evolve", "--builtin", "--w", "0.57", "--T", "50", "--steps", "8",
             "--shots", "10", "--seed", "0", "--histogram", os.path.join(out, "hist.csv")],
            ["bench", "export", "--output", os.path.join(out, "bench.csv")]]
with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
    for argv in commands:
        assert main(argv) == 0, argv
"""


def test_every_public_function_and_subcommand_runs_without_scipy(tmp_path, tie_csv,
                                                                 d3_ties_csv):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", NO_SCIPY_SCRIPT, str(tmp_path), tie_csv,
         d3_ties_csv],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == proc.stderr == ""


def test_front_leaves_numpy_ma_unloaded():
    # np.unique(..., axis=0) imports numpy.ma; the d = 2 hull does not call it.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, moqa.cli; moqa.cli.main(['front', '--builtin']); "
         "print('numpy.ma' in sys.modules, file=sys.stderr)"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["method"] == "hull"
    assert proc.stderr == "False\n"


def test_d3_front_leaves_scipy_unloaded(d3_ties_csv):
    # The d >= 3 support LPs run in the package's own code.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, moqa.cli; moqa.cli.main(['front', sys.argv[1]]); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
         "file=sys.stderr)", d3_ties_csv],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["method"] == "lp"
    assert proc.stderr == "[]\n"


def test_repeated_main_calls_carry_no_state(tmp_path, tie_csv):
    # main builds its parser once per process; --w appends, and neither its
    # list nor the chosen subcommand may reach the next call.
    out = tmp_path / "pair.json"
    assert main(["resolve", tie_csv, "--w", "0.5", "--w", "0.25", "--output", str(out)]) == EXIT_OK
    code, payload = run_json(tmp_path, "resolve", tie_csv, "--w", "0.25")
    assert code == EXIT_OK
    assert payload == json.loads((tmp_path / "pair.w1.json").read_text())
    code, payload = run_json(tmp_path, "front", tie_csv)
    assert code == EXIT_OK
    assert payload["method"] == "hull" and "certificate" not in payload


def test_version_flag_in_process():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0

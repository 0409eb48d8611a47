"""Smoke test: every workload's command sequence and every check at n = 4.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_and_untraced_passes_pass_every_check(workload):
    result = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in SPEC["per_layer"]]


def test_smoke_reports_every_end_to_end_metric():
    result = _run("front_n13", trace=0)
    assert result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not list(ROOT.glob(".perfbench-*")), "a run left its temporary directory behind"

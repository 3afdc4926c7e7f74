"""Smoke test of the benchmark: each workload at its minimal length.

    python3 -m pytest bench/test_bench.py -q

``--seconds 1`` runs the minimum of two passes per workload, so the whole file
takes a few minutes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        capture_output=True, text=True, cwd=cwd, timeout=600, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *human, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    text = "\n".join(human)
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert got["value"] > 0, m["name"]
        assert re.search(rf"{re.escape(m['name'])}=\S+ {re.escape(m['unit'])}", text), m["name"]


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

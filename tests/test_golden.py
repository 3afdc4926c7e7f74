"""Golden regression test: CLI output on a fixed tiny corpus.

Each case is one ``vmpadmm solve`` run (theta=1, rho=eps=0.1, at most 40
iterations).  The CSV log must match the recorded one column by column:
``k`` exactly, every float to rtol 1e-9 / atol 1e-12, which absorbs BLAS
roundoff but is far below the slack of any check.  The report's stopping
iterations and ``all_pass`` must match exactly.

The goldens in ``tests/golden`` were recorded before the certificate path
was refactored; ``python tests/test_golden.py`` rewrites them.
"""

import csv
import json
import os
import sys

import numpy as np
import pytest

from vmpadmm.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SCHEDULES = {
    "constant": {
        "H": {"type": "scaled_identity", "scale": 1.0},
        "R": {"type": "zero"},
        "S": {"type": "zero"},
        "c": {"c0": 0.0, "law": "zero"},
        "k_max": 40,
    },
    "inverse_square": {
        "H": {"type": "scaled_identity", "scale": 1.0},
        "R": {"type": "scaled_identity", "scale": 0.5},
        "S": {"type": "scaled_identity", "scale": 0.5},
        "c": {"c0": 0.5, "law": "inverse_square"},
        "k_max": 40,
    },
    # R_k = tau I - f_k A^T A with tau >= 3 lambda_max(A^T A) on both problems
    # (5.68 for lasso, 1.68 for consensus_ls), so R_k stays PSD under the drift
    "linearized": {
        "H": {"type": "scaled_identity", "scale": 1.0},
        "R": {"type": "linearized", "tau": 18.0},
        "S": {"type": "zero"},
        "c": {"c0": 0.5, "law": "inverse_square"},
        "k_max": 40,
    },
}
PROBLEMS = {"lasso": "gen:lasso:10x5:3", "consensus_ls": "gen:consensus_ls:6x5x4:5"}
CASES = [(p, s) for p in PROBLEMS for s in SCHEDULES]
STOPPING_KEYS = ("first_k_pointwise", "first_k_ergodic")


def solve(problem, schedule, out_dir):
    """Run one case; returns (csv path, report dict)."""
    sched_path = os.path.join(out_dir, f"{schedule}.json")
    with open(sched_path, "w") as fh:
        json.dump(SCHEDULES[schedule], fh)
    log = os.path.join(out_dir, f"{problem}-{schedule}.csv")
    report = os.path.join(out_dir, f"{problem}-{schedule}-report.json")
    main([
        "solve", "--problem", PROBLEMS[problem], "--schedule", sched_path,
        "--theta", "1.0", "--max-iters", "40", "--rho", "0.1", "--eps", "0.1",
        "--log", log, "--report", report,
    ])
    with open(report) as fh:
        return log, json.load(fh)


def summary(report):
    return {**{k: report["stopping"][k] for k in STOPPING_KEYS}, "all_pass": report["all_pass"]}


def read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {col: [r[col] for r in rows] for col in rows[0]}


@pytest.fixture(scope="module")
def golden_summaries():
    with open(os.path.join(GOLDEN_DIR, "summary.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("problem,schedule", CASES)
def test_matches_golden(problem, schedule, tmp_path, golden_summaries):
    log, report = solve(problem, schedule, str(tmp_path))
    got = read_columns(log)
    want = read_columns(os.path.join(GOLDEN_DIR, f"{problem}-{schedule}.csv"))
    assert list(got) == list(want)
    assert got["k"] == want["k"]
    for col in list(want)[1:]:
        np.testing.assert_allclose(
            np.array(got[col], float), np.array(want[col], float),
            rtol=1e-9, atol=1e-12, err_msg=col,
        )
    assert summary(report) == golden_summaries[f"{problem}-{schedule}"]


def record():
    """Rewrite the goldens from the current code."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    summaries = {}
    for problem, schedule in CASES:
        log, report = solve(problem, schedule, GOLDEN_DIR)
        os.remove(os.path.join(GOLDEN_DIR, f"{problem}-{schedule}-report.json"))
        summaries[f"{problem}-{schedule}"] = summary(report)
    for schedule in SCHEDULES:
        os.remove(os.path.join(GOLDEN_DIR, f"{schedule}.json"))
    with open(os.path.join(GOLDEN_DIR, "summary.json"), "w") as fh:
        json.dump(summaries, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(record())

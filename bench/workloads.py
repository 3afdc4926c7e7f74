"""The benchmark workloads, each a fixed list of ``vmpadmm`` CLI invocations.

Every invocation gets an explicit ``--seed`` (the benchmark seed, which also
overrides the generator seed of every ``gen:`` spec), runs all four
verifications, and writes its CSV log and JSON report under the run's work
directory.  The same seed always gives the same argument lists and input
files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

RHO = 1e-6
VERIFY = "hpe,bounds,memberships,fejer"

# Acceptance-sweep shapes, one per generator kind, n from 10 to 40.  The
# smallest shapes of the sweep (box_qp 10, consensus 6x5x4) are left out: on
# some seeds they need more than 300 iterations to reach RHO.
SMALL_SPECS = ("gen:lasso:10x5", "gen:box_qp:40", "gen:consensus_ls:20x15x10")
SMALL_THETAS = ("0.5", "1.0", "1.5")
# Every solve runs to --max-iters (the ergodic stop is never met), so this sets
# the work per solve.  Over benchmark seeds 0-199 the slowest solve reached RHO
# at k = 281 (box_qp 40, constant H, theta 0.5).
SMALL_ITERS = 300
LARGE_DRIFT_SPECS = ("gen:lasso:200x100", "gen:box_qp:200", "gen:consensus_ls:200x150x100")
LARGE_LINEARIZED_SPECS = ("gen:lasso:200x100", "gen:box_qp:200")
# Over seeds 0-89 lasso 200x100 reached RHO by k = 112, the others by k = 90.
LARGE_ITERS = 150
LARGE_THETA = "1.0"
H_SCALE = 1.0
TAU_FACTOR = 1.05  # linearized R_k = tau*I - A^T H A with tau = 1.05 lambda_max(A^T H A)

NAMES = ("small_sweep", "large_drift", "large_linearized")


@dataclass(frozen=True)
class Unit:
    """One ``cli.main`` call and the report files of each solve it runs."""

    argv: tuple[str, ...]
    solves: tuple[tuple[str, str], ...]  # (csv, json) per solve, in run order
    extra: tuple[str, ...] = ()  # other report files the call writes


def _schedule(k_max: int, law: str, r_desc: dict | None = None) -> dict:
    return {
        "H": {"type": "scaled_identity", "scale": H_SCALE},
        "R": r_desc or {"type": "zero"},
        "S": {"type": "zero"},
        "c": {"c0": 0.5 if law == "inverse_square" else 0.0, "law": law},
        "k_max": k_max,
    }


def _write(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def _common(schedule: str, theta: str, iters: int, seed: int) -> list[str]:
    return [
        "--schedule", schedule, "--theta", theta, "--max-iters", str(iters),
        "--rho", repr(RHO), "--verify", VERIFY, "--seed", str(seed),
    ]


def _solve_unit(workdir: str, tag: str, spec: str, schedule: str, seed: int) -> Unit:
    log, report = os.path.join(workdir, f"{tag}.csv"), os.path.join(workdir, f"{tag}.json")
    argv = ["solve", "--problem", f"{spec}:{seed}", *_common(schedule, LARGE_THETA, LARGE_ITERS, seed),
            "--log", log, "--report", report]
    return Unit(tuple(argv), ((log, report),))


def _small_sweep(workdir: str, seed: int) -> list[Unit]:
    units = []
    for law in ("zero", "inverse_square"):
        sched = _write(os.path.join(workdir, f"schedule-{law}.json"), _schedule(SMALL_ITERS, law))
        for theta in SMALL_THETAS:
            # Each batch gets its own instances, so a run averages over 18
            # independent problems rather than 3.
            batch_seed = seed * len(SMALL_THETAS) * 2 + len(units)
            corpus = ",".join(f"{spec}:{batch_seed}" for spec in SMALL_SPECS)
            out = os.path.join(workdir, f"batch-{law}-theta{theta}")
            argv = ["batch", "--corpus", corpus, *_common(sched, theta, SMALL_ITERS, batch_seed),
                    "--out-dir", out]
            solves = tuple(
                (os.path.join(out, f"instance-{i:03d}.csv"), os.path.join(out, f"instance-{i:03d}.json"))
                for i in range(len(SMALL_SPECS))
            )
            units.append(Unit(tuple(argv), solves, (os.path.join(out, "aggregate.json"),)))
    return units


def _large_drift(workdir: str, seed: int) -> list[Unit]:
    sched = _write(os.path.join(workdir, "schedule-drift.json"), _schedule(LARGE_ITERS, "inverse_square"))
    return [_solve_unit(workdir, f"solve-{i}", spec, sched, seed) for i, spec in enumerate(LARGE_DRIFT_SPECS)]


def _large_linearized(workdir: str, seed: int, generate) -> list[Unit]:
    units = []
    for i, spec in enumerate(LARGE_LINEARIZED_SPECS):
        _, kind, dims = spec.split(":")
        shape = tuple(int(d) for d in dims.split("x"))
        A = generate(kind, shape if len(shape) > 1 else shape[0], seed).A
        tau = TAU_FACTOR * H_SCALE * float(np.linalg.eigvalsh(A.T @ A)[-1])
        cfg = _schedule(LARGE_ITERS, "zero", {"type": "linearized", "tau": tau})
        sched = _write(os.path.join(workdir, f"schedule-linearized-{i}.json"), cfg)
        units.append(_solve_unit(workdir, f"solve-{i}", spec, sched, seed))
    return units


def build(name: str, seed: int, workdir: str, generate) -> list[Unit]:
    """Write the workload's input files into ``workdir`` and return its units.

    ``generate`` is ``vmpadmm.problems.generate``; it is used only to read the
    constraint matrix that sets tau for the linearized schedules.
    """
    if name == "small_sweep":
        return _small_sweep(workdir, seed)
    if name == "large_drift":
        return _large_drift(workdir, seed)
    if name == "large_linearized":
        return _large_linearized(workdir, seed, generate)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")

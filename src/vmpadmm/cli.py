"""Command-line entry point for certified variable-metric proximal ADMM runs.

``solve`` runs one instance with per-iteration verification and writes a CSV
iteration log plus a JSON verification report; ``batch`` sweeps a corpus of
instances and writes an aggregate report.  Exit codes: 0 every verification
passes, 2 verification failure, 1 I/O, flag or configuration error or an
input the solver does not support.  ``--verify`` only selects which check
groups' per-k rows the report lists; the verdict covers every group.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .admm import SubproblemError, VmPadmmRun, compute_sigma_theta
from .problems import ProblemSpec, generate, load_problem
from .schedule import ScheduleError, load_schedule

__all__ = ["main", "run_solve", "run_batch", "parse_generator_spec"]

CSV_COLUMNS = [
    "k", "res_x_dual", "res_y_dual", "res_gamma_dual", "res_max",
    "bound_pointwise", "erg_res_max", "bound_erg_res", "eps_x_a", "eps_y_a",
    "eps_sum", "bound_erg_eps", "eta_k", "hpe_lhs", "hpe_rhs", "hpe_slack",
]
VERIFY_FLAGS = ("hpe", "bounds", "memberships", "fejer")


class ConfigError(Exception):
    """Bad configuration, unreadable/malformed input files, or an input the
    solver does not support (exit 1)."""


def parse_generator_spec(spec: str, seed_override: int | None = None) -> ProblemSpec:
    """Parse ``gen:kind:dims:seed`` (dims like ``10x5``) into an instance."""
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] != "gen":
        raise ConfigError(f"generator spec must be gen:kind:dims:seed, got {spec!r}")
    _, kind, dims_s, seed_s = parts
    try:
        dims = tuple(int(d) for d in dims_s.split("x"))
        seed = int(seed_s)
    except ValueError as exc:
        raise ConfigError(f"bad dims/seed in generator spec {spec!r}: {exc}") from exc
    if seed_override is not None:
        seed = seed_override
    if seed < 0:
        where = "--seed" if seed_override is not None else f"generator spec {spec!r}"
        raise ConfigError(f"seed must be >= 0, got {seed} from {where}")
    try:
        return generate(kind, dims, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _reason(exc: Exception) -> str:
    """A loader's error as one line: a ``KeyError`` names the missing field."""
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


def _load_problem_arg(arg: str, seed_override: int | None) -> ProblemSpec:
    if arg.startswith("gen:"):
        return parse_generator_spec(arg, seed_override)
    if not os.path.exists(arg):
        raise ConfigError(f"problem file not found: {arg}")
    try:
        return load_problem(arg)
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ConfigError(f"malformed problem file {arg}: {_reason(exc)}") from exc


def run_solve(args) -> int:
    """Run one certified solve; writes the CSV log and JSON report."""
    verify = [f.strip() for f in args.verify.split(",") if f.strip()]
    if not verify:
        raise ConfigError(f"--verify names no check group; choose from {VERIFY_FLAGS}")
    for f in verify:
        if f not in VERIFY_FLAGS:
            raise ConfigError(f"unknown verify flag {f!r}; choose from {VERIFY_FLAGS}")
    if not (args.rho > 0 and args.eps > 0) or args.max_iters < 1:
        raise ConfigError("rho and eps must be positive and max_iters >= 1")

    problem = _load_problem_arg(args.problem, args.seed)
    try:
        schedule = load_schedule(args.schedule, problem.dims, A=problem.A)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ConfigError(f"malformed schedule file {args.schedule}: {_reason(exc)}") from exc
    try:
        params = compute_sigma_theta(args.theta, margin=args.sigma_margin)
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        run = VmPadmmRun(problem, schedule, params)  # validates the schedule first
    except ScheduleError as exc:  # a failed validation, or H_0 gives no M_0
        raise ConfigError(str(exc)) from exc
    except (ValueError, RuntimeError) as exc:  # reference solve rejected the problem or hit its cap
        raise ConfigError(f"reference solve: {exc}") from exc
    if args.max_iters > schedule.k_max:
        print(
            f"warning: --max-iters {args.max_iters} exceeds the schedule horizon "
            f"k_max={schedule.k_max}; running at most {schedule.k_max} iterations",
            file=sys.stderr,
        )
    try:
        columns, checks, worst, (first_pw, first_erg) = _drive(run, args.max_iters, args.rho, args.eps)
    except SubproblemError as exc:
        raise ConfigError(f"subproblem: {exc}") from exc
    except FloatingPointError as exc:  # the gamma residual identity fails beyond roundoff
        raise ConfigError(str(exc)) from exc

    failures = {
        name: [k for k, ok, _ in results if not ok]
        for name, results in checks.items()
    }
    all_pass = not any(failures.values())
    doc = {
        "problem": problem.name or args.problem,
        "theta": args.theta,
        "verify": verify,
        "constants": {
            "sigma_theta": params.sigma,
            "tau_theta": params.tau,
            "C_S": schedule.C_S,
            "C_P": schedule.C_P,
            "E": run.bounds.E,
            "E_hat": run.bounds.E_hat,
            "d0_upper_bound": run.d0,
            "eta0": run.eta0,
        },
        "iterations": len(columns["k"]),
        "max_iters": args.max_iters,
        "checks": {group: checks[group] for group in verify},
        "failures": failures,
        "all_pass": all_pass,
        "stopping": {
            "rho": args.rho,
            "eps": args.eps,
            "first_k_pointwise": _first_k(first_pw),
            "first_k_ergodic": _first_k(first_erg),
        },
    }
    _write_csv(args.log, columns)
    _write_json(args.report, doc)
    args.worst_slack = worst  # read by run_batch, which calls this per instance
    return 0 if all_pass else 2


def _first_k(k):
    return k if k is not None else "not reached"


def _drive(run: VmPadmmRun, iters: int, rho: float, eps: float):
    """Consume the solver's certified blocks, collecting the CSV columns and,
    for every group of ``block.checks``, per-k outcomes as
    ``[k, ok, slack]`` rows; returns (columns, checks, worst, first_k),
    where ``worst`` maps each check name to the ``[k, slack]`` of its
    smallest slack (the first such k) and ``first_k`` is the pair of first k
    at which the pointwise and the ergodic stopping rule held (or None)."""
    columns: dict[str, list] = {c: [] for c in CSV_COLUMNS}
    checks: dict[str, list] = {f: [] for f in VERIFY_FLAGS}
    worst: dict[str, list] = {}
    first_k = (None, None)
    for blk in run.certified_blocks(iters, rho, eps):
        it, pw, erg, hc = blk.iterate, blk.pointwise, blk.ergodic, blk.hpe_check
        values = (
            it.k, blk.dual_x, blk.dual_y, blk.dual_gamma, pw.dual_max, pw.bound_residual,
            erg.dual_max, erg.bound_residual, erg.eps_x, erg.eps_y, erg.eps_x + erg.eps_y, erg.bound_eps,
            it.eta, hc.lhs, hc.rhs, hc.slack,
        )
        for name, column in zip(CSV_COLUMNS, values):
            columns[name] += column.tolist()
        ks = it.k.tolist()
        block_checks = blk.checks
        for group, out in checks.items():
            group_checks = block_checks[group]
            oks = [c.ok.tolist() for c in group_checks]
            slacks = [c.slack.tolist() for c in group_checks]
            for i, k in enumerate(ks):
                out += ([k, ok[i], slack[i]] for ok, slack in zip(oks, slacks))
            for c, slack in zip(group_checks, slacks):
                i = int(np.argmin(c.slack))
                if c.name not in worst or slack[i] < worst[c.name][1]:
                    worst[c.name] = [ks[i], slack[i]]
        first_k = (blk.first_k_pointwise, blk.first_k_ergodic)
        del blk  # not kept while the next block is certified
    return columns, checks, worst, first_k


def _write_csv(path, columns):
    """One row per iteration; each float as its shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        w.writerows(zip(*(columns[c] for c in CSV_COLUMNS)))


def _write_json(path, doc):
    """One line of compact JSON with sorted keys; every value is a Python
    scalar, list or dict.  ``json.dumps`` without ``indent`` runs the C
    encoder; ``json.dump`` never does."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def run_batch(args) -> int:
    """Run each corpus entry through ``solve``; write an aggregate report."""
    entries = _load_corpus(args.corpus)
    if not entries:
        raise ConfigError("corpus is empty")
    os.makedirs(args.out_dir, exist_ok=True)
    results = []
    for i, entry in enumerate(entries):
        tag = f"instance-{i:03d}"
        sub = argparse.Namespace(**vars(args))
        sub.problem = entry
        sub.log = os.path.join(args.out_dir, f"{tag}.csv")
        sub.report = os.path.join(args.out_dir, f"{tag}.json")
        try:
            code = run_solve(sub)
            results.append({
                "problem": entry, "exit": code, "all_pass": code == 0, "worst_slack": sub.worst_slack,
            })
        except ConfigError as exc:
            results.append({"problem": entry, "exit": 1, "error": str(exc)})
    doc = {"corpus": args.corpus, "instances": results,
           "all_pass": all(r.get("all_pass") for r in results)}
    _write_json(os.path.join(args.out_dir, "aggregate.json"), doc)
    return 0 if doc["all_pass"] else 2


def _load_corpus(spec: str) -> list[str]:
    """A corpus is either comma-separated gen: specs or a JSON list file."""
    if spec.startswith("gen:"):
        return [s.strip() for s in spec.split(",") if s.strip()]
    if not os.path.exists(spec):
        raise ConfigError(f"corpus file not found: {spec}")
    try:
        with open(spec) as fh:
            entries = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed corpus file {spec}: {exc}") from exc
    if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
        raise ConfigError("corpus file must hold a JSON list of problem entries")
    return entries


def _add_common(p):
    p.add_argument("--schedule", required=True, help="schedule JSON file")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--sigma-margin", type=float, default=1e-3, dest="sigma_margin")
    p.add_argument("--max-iters", type=int, default=1000, dest="max_iters")
    p.add_argument("--rho", type=float, default=1e-6)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--verify", default=",".join(VERIFY_FLAGS),
                   help="check groups whose per-k rows the report lists; the verdict covers every group")
    p.add_argument("--seed", type=int, default=None, help="overrides the seed of every gen: spec")


def _refuse(message: str):
    """A parser's flag error as :class:`ConfigError` (exit 1), in place of
    argparse's usage block and exit 2; ``-h`` still exits 0.  On Python 3.10
    and 3.11 ``exit_on_error=False`` leaves missing and unrecognized
    arguments to this method."""
    raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vmpadmm")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run one certified solve")
    solve.add_argument("--problem", required=True,
                       help="problem JSON path or gen:kind:dims:seed")
    _add_common(solve)
    solve.add_argument("--log", required=True, help="CSV iteration log path")
    solve.add_argument("--report", required=True, help="JSON report path")
    batch = sub.add_parser("batch", help="run a corpus of instances")
    batch.add_argument("--corpus", required=True,
                       help="JSON list file or comma-separated gen: specs")
    _add_common(batch)
    batch.add_argument("--out-dir", default="vmpadmm-batch", dest="out_dir")
    for p in (parser, solve, batch):
        p.error = _refuse
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "solve":
            return run_solve(args)
        return run_batch(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point for certified variable-metric proximal ADMM runs.

``solve`` runs one instance with per-iteration verification and writes a CSV
iteration log plus a JSON verification report; ``batch`` sweeps a corpus of
instances and writes an aggregate report.  Exit codes: 0 all enabled
verifications pass, 2 verification failure, 1 I/O or configuration error or
an input the solver does not support.
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


def _load_problem_arg(arg: str, seed_override: int | None) -> ProblemSpec:
    if arg.startswith("gen:"):
        return parse_generator_spec(arg, seed_override)
    if not os.path.exists(arg):
        raise ConfigError(f"problem file not found: {arg}")
    try:
        return load_problem(arg)
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ConfigError(f"malformed problem file {arg}: {exc}") from exc


def _fmt(v: float) -> str:
    return repr(float(v))


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
        raise ConfigError(f"malformed schedule file {args.schedule}: {exc}") from exc
    try:
        params = compute_sigma_theta(args.theta, margin=args.sigma_margin)
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        run = VmPadmmRun(problem, schedule, params)  # validates the schedule first
    except ScheduleError as exc:  # a failed validation or M_0, or an operator not PSD at some k > 0
        named = str(exc).startswith("schedule ")
        raise ConfigError(str(exc) if named else f"malformed schedule file {args.schedule}: {exc}") from exc
    except (ValueError, RuntimeError) as exc:  # reference solve rejected the problem or hit its cap
        raise ConfigError(f"reference solve: {exc}") from exc
    if args.max_iters > schedule.k_max:
        print(
            f"warning: --max-iters {args.max_iters} exceeds the schedule horizon "
            f"k_max={schedule.k_max}; running at most {schedule.k_max} iterations",
            file=sys.stderr,
        )
    try:
        rows, checks, worst, last = _drive(run, args.max_iters, args.rho, args.eps, verify)
    except SubproblemError as exc:
        raise ConfigError(f"subproblem: {exc}") from exc

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
        "iterations": len(rows),
        "max_iters": args.max_iters,
        "checks": checks,
        "failures": failures,
        "all_pass": all_pass,
        "stopping": {
            "rho": args.rho,
            "eps": args.eps,
            "first_k_pointwise": _first_k(last.first_k_pointwise),
            "first_k_ergodic": _first_k(last.first_k_ergodic),
        },
    }
    _write_csv(args.log, rows)
    _write_json(args.report, doc)
    args.worst_slack = worst  # read by run_batch, which calls this per instance
    return 0 if all_pass else 2


def _first_k(k):
    return k if k is not None else "not reached"


def _drive(run: VmPadmmRun, iters: int, rho: float, eps: float, verify):
    """Consume the solver's certified steps, collecting CSV rows and, for each
    verified group of ``step.checks``, per-k outcomes as ``[k, ok, slack]``
    rows; returns (rows, checks, worst, last certified step), where ``worst``
    maps each check name to the ``[k, slack]`` of its smallest slack."""
    rows = []
    checks: dict[str, list] = {f: [] for f in verify}
    worst: dict[str, list] = {}
    step = None
    for step in run.certified_steps(iters, rho, eps):
        it, pw, erg = step.iterate, step.pointwise, step.ergodic
        k = it.k
        rows.append({
            "k": k,
            "res_x_dual": it.dual_x,
            "res_y_dual": it.dual_y,
            "res_gamma_dual": it.dual_gamma,
            "res_max": pw.dual_max,
            "bound_pointwise": pw.bound_residual,
            "erg_res_max": erg.dual_max,
            "bound_erg_res": erg.bound_residual,
            "eps_x_a": erg.eps_x,
            "eps_y_a": erg.eps_y,
            "eps_sum": erg.eps_x + erg.eps_y,
            "bound_erg_eps": erg.bound_eps,
            "eta_k": it.eta,
            "hpe_lhs": it.hpe_check.lhs,
            "hpe_rhs": it.hpe_check.rhs,
            "hpe_slack": it.hpe_check.slack,
        })
        step_checks = step.checks
        for group, out in checks.items():
            for c in step_checks[group]:
                slack = c.slack
                out.append([k, c.ok, slack])
                if c.name not in worst or slack < worst[c.name][1]:
                    worst[c.name] = [k, slack]
    return rows, checks, worst, step


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in rows:
            w.writerow([r["k"]] + [_fmt(r[c]) for c in CSV_COLUMNS[1:]])


def _json_default(o):
    if isinstance(o, (np.bool_,)):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
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
    p.add_argument("--verify", default="hpe,bounds,memberships,fejer")
    p.add_argument("--seed", type=int, default=None, help="overrides the seed of every gen: spec")


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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return run_solve(args)
        return run_batch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Certified-solve benchmark for vmpadmm.

    python3 bench/run.py --workload small_sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One workload runs in this process: ``vmpadmm.cli.main`` is called in-process
on the workload's fixed list of invocations (see ``workloads.py``), pass after
pass, for ``--seconds`` seconds and at least two passes.  Every solve must
exit 0, report ``all_pass`` and reach rho = 1e-6, and every pass must write
byte-identical CSV and JSON reports.

``--trace 0`` reports the end-to-end metrics, measured with only the boundary
timestamps of ``probes.Timeline``.  Their times run on a host-speed clock:
wall time scaled by how fast a fixed probe kernel runs at that moment
(``probes.HostSpeed``), because the host's speed swings by up to 1.6x for tens
of seconds at a time.  The plain wall-clock figures are printed beside them
and kept in ``result.json``.  ``--trace 1`` reports the per-layer
metrics instead: it alternates plain passes with passes in which each layer's
public functions are wrapped (``probes.Tracer``), and also reports the wall
time of both kinds.  ``--workload all`` runs every
workload untraced and traced in child processes, prints one row per workload
and the tracing overhead, and writes ``.bench_work/results.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, reports,
spans and results go to ``.bench_work/`` at the root of the checkout.
"""

import os

# Single-threaded BLAS baseline; must be set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The CLI lets VMPADMM_SEED override --seed; the workload seed is explicit.
os.environ.pop("VMPADMM_SEED", None)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from probes import EXIT, MAIN, HostSpeed, Patcher, Timeline, Tracer, clock, solve_events  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # not used while the benchmark was written; confirms claims
LAYERS = ("linalg", "schedule", "hpe", "problems", "admm", "cli")

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cert_iters_per_s": "1/s", "iter_ms_p50": "ms",
    "iter_ms_p90": "ms", "time_to_rho_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.solve_s": "s", "cli.self_s": "s", "cli.report_bytes": "bytes", "cli.solves": "count",
    "schedule.build_s": "s", "schedule.validate_s": "s", "schedule.operator_leq_calls": "count",
    "schedule.assemble_Mk_calls": "count", "schedule.assemble_Mk_ms_p50": "ms",
    "schedule.realized_per_used": "ratio",
    "admm.compute_sigma_theta_s": "s", "admm.run_init_s": "s", "admm.step_ms_p50": "ms",
    "admm.step_self_ms_p50": "ms", "admm.solve_x_ms_p50": "ms", "admm.solve_y_ms_p50": "ms",
    "admm.update_multiplier_ms_p50": "ms", "admm.pointwise_cert_ms_p50": "ms",
    "admm.ergodic_cert_ms_p50": "ms", "admm.certified_iters": "count", "admm.iters_to_rho": "count",
    "admm.retained_kb_per_iter": "KiB",
    "hpe.add_iterate_ms_p50": "ms", "hpe.fejer_check_ms_p50": "ms", "hpe.ergodic_point_ms_p50": "ms",
    "problems.generate_s": "s", "problems.reference_solve_s": "s",
    "problems.membership_distance_calls": "count", "problems.sampler_ms_p50": "ms",
    "linalg.psd_ctor_per_iter": "count", "linalg.psd_ctor_s": "s",
    "linalg.seminorm_calls_per_iter": "count", "linalg.dual_seminorm_general_ms_p50": "ms",
    "linalg.lapack_eigh_per_iter": "count", "linalg.lapack_eigvalsh_per_iter": "count",
    "linalg.lapack_lstsq_per_iter": "count", "linalg.lapack_solve_calls": "count",
    "linalg.lapack_s": "s", "linalg.lapack_flop_computed": "flop",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
}


def import_program():
    """Import ``vmpadmm`` from ``src/`` of this checkout, and nowhere else."""
    src = ROOT / "src"
    if not (src / "vmpadmm" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'vmpadmm'} not found; run from the root of a vmpadmm checkout")
    sys.path.insert(0, str(src))
    vm = importlib.import_module("vmpadmm")
    if Path(vm.__file__).resolve().parent != (src / "vmpadmm").resolve():
        sys.exit(f"error: imported vmpadmm from {vm.__file__}, not from {src}")
    for layer in LAYERS:
        importlib.import_module(f"vmpadmm.{layer}")
    return vm


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_solve(csv_path: str, json_path: str, exit_code: int) -> dict:
    """Gate one solve: exit 0, ``all_pass``, rho reached, CSV and report agree."""
    try:
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(json_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return {"csv": csv_path, "iters": 0, "k_rho": None, "digest": None, "bytes": 0,
                "problems": [f"exit {exit_code}", f"unreadable report: {exc}"]}
    k_rho = next((int(r["k"]) for r in rows if float(r["res_max"]) <= workloads.RHO), None)
    problems = []
    if exit_code != 0:
        problems.append(f"exit {exit_code}")
    if report["all_pass"] is not True:
        problems.append("all_pass false")
    if k_rho is None:
        problems.append("rho not reached")
    first_pw = report["stopping"]["first_k_pointwise"]
    if report["iterations"] != len(rows) or first_pw != (k_rho or "not reached"):
        problems.append("CSV and JSON report disagree")
    return {
        "csv": csv_path, "iters": len(rows), "k_rho": k_rho, "problems": problems,
        "digest": [sha256(csv_path), sha256(json_path)],
        "bytes": os.path.getsize(csv_path) + os.path.getsize(json_path),
    }


def run_unit(vm, unit: workloads.Unit, timeline: Timeline | None) -> tuple[float, list[dict]]:
    """One ``cli.main`` call; returns its wall time and a record per solve."""
    if timeline is not None:
        timeline.mark(MAIN)
    t_in = clock()
    code = vm.cli.main(list(unit.argv))
    t_out = clock()
    if timeline is not None:
        timeline.mark(EXIT)
    codes = [code] * len(unit.solves)
    for extra in unit.extra:  # batch: per-instance exit codes
        try:
            with open(extra) as fh:
                codes = [inst["exit"] for inst in json.load(fh)["instances"]]
        except (OSError, ValueError, KeyError):
            pass  # no aggregate: the missing instance reports fail the gate
    records = [check_solve(c, j, ec) for (c, j), ec in zip(unit.solves, codes)]
    return t_out - t_in, records


def pass_timing(kinds: bytes, times: np.ndarray, records: list[dict]) -> dict:
    """Wall, set-up, time-to-rho and per-iteration times of one pass."""
    gaps = np.diff(times)
    gaps[np.frombuffer(kinds, dtype=np.uint8)[:-1] == EXIT] = 0.0  # the benchmark's checks between calls
    at = np.concatenate([[0.0], np.cumsum(gaps)])  # time of each event
    solves = solve_events(kinds)
    if len(solves) != len(records):
        raise RuntimeError(f"{len(solves)} solves timed but {len(records)} reports checked")
    setup, to_rho, iter_s = 0.0, 0.0, []
    for (start, init, steps, end), rec in zip(solves, records):
        if init is None:
            continue  # failed in set-up; the gate reports it
        setup += at[init] - at[start]
        ends = steps[1:] + [end]  # iteration k ends where step k+1 begins
        iter_s.append(at[ends] - at[steps])
        if rec["k_rho"]:
            to_rho += at[ends[rec["k_rho"] - 1]] - at[start]
    return {"wall_s": float(at[-1]), "setup_s": float(setup), "time_to_rho_s": float(to_rho),
            "iter_s": np.concatenate(iter_s) if iter_s else np.zeros(0)}


def end_to_end(timings: list[dict]) -> dict:
    """The end-to-end metrics: medians over passes, quantiles over every
    certified iteration of every pass."""
    med = {k: float(np.median([t[k] for t in timings])) for k in ("wall_s", "setup_s", "time_to_rho_s")}
    iter_ms = 1e3 * np.concatenate([t["iter_s"] for t in timings])
    return {
        "wall_s": med["wall_s"],
        "setup_s": med["setup_s"],
        "cert_iters_per_s": timings[0]["iter_s"].size / (med["wall_s"] - med["setup_s"]),
        "iter_ms_p50": float(np.percentile(iter_ms, 50)),
        "iter_ms_p90": float(np.percentile(iter_ms, 90)),
        "time_to_rho_s": med["time_to_rho_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def sum_of_medians(per_pass: list[list]) -> float:
    """Sum over items of each item's median across passes (None skipped)."""
    total = 0.0
    for values in zip(*per_pass):
        values = [v for v in values if v is not None]
        total += float(np.median(values)) if values else 0.0
    return total


def run_workload(vm, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{name}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    units = workloads.build(name, seed, str(workdir), vm.problems.generate)

    patch = Patcher([vm] + [getattr(vm, layer) for layer in LAYERS])
    timeline, tracer = (None, Tracer()) if trace else (Timeline(), None)
    if timeline is not None:
        timeline.install(vm, patch)
    # A traced run alternates plain and traced passes, so that the tracing
    # overhead is measured under the same host conditions as the traced work.
    passes, unit_walls, marks, timings, wall_clock = [], [], [], [], []
    try:
        t_begin = clock()
        while True:
            traced_pass = trace and len(passes) % 2 == 1
            if traced_pass:
                marks.append(len(tracer.start))
                tracer.install(vm, patch)
            t_pass = clock()
            walls, records = [], []
            try:
                for unit in units:
                    wall, recs = run_unit(vm, unit, timeline)
                    walls.append(wall)
                    records.extend(recs)
            finally:
                if traced_pass:
                    patch.restore()
            unit_walls.append(walls)
            passes.append(records)
            if timeline is not None:
                kinds, times, raw = timeline.take()
                timings.append(pass_timing(kinds, times, records))
                wall_clock.append(pass_timing(kinds, raw, records))
            now = clock()
            if len(passes) >= 2 and now - t_begin + (now - t_pass) > seconds:
                break
        if trace:
            marks.append(len(tracer.start))
    finally:
        patch.restore()

    # Correctness gate: every solve passes, and every pass repeats pass 1 byte for byte.
    failures = []
    for p, records in enumerate(passes):
        for j, (rec, ref) in enumerate(zip(records, passes[0])):
            if rec["digest"] != ref["digest"]:
                rec["problems"].append("report differs from pass 1")
            if rec["problems"]:
                failures.append({"pass": p, "solve": j, "csv": rec["csv"], "problems": rec["problems"]})

    if tracer is None:
        metrics = end_to_end(timings)
        units_of = END_TO_END
        probe_ms = 1e3 * np.array(timeline.speed.times)
        samples = {
            "iter_ms": sum(t["iter_s"].size for t in timings),
            "wall_clock": end_to_end(wall_clock), "host_probes": int(probe_ms.size),
            "host_probe_ms": {f"p{q}": float(np.percentile(probe_ms, q)) for q in (0, 10, 50, 90, 100)},
        }
    else:
        metrics = tracer.layer_metrics(marks)
        metrics.update({
            "cli.report_bytes": sum(r["bytes"] for r in passes[0])
            + sum(os.path.getsize(e) for u in units for e in u.extra),
            "cli.solves": len(passes[0]),
            "admm.iters_to_rho": sum(r["k_rho"] or 0 for r in passes[0]),
            "trace.wall_s": sum_of_medians(unit_walls[1::2]),
            "trace.untraced_wall_s": sum_of_medians(unit_walls[0::2]),
        })
        units_of = PER_LAYER
        by_solve = [b / 1024.0 / k for b, k in tracer.retained[:len(passes[0])]]
        samples = {"spans": len(tracer.start), "retained_kb_per_iter_by_solve": by_solve}
        tracer.save(str(workdir / "spans.npz"))

    attempted = sum(len(recs) for recs in passes)
    failed = sum(1 for recs in passes for r in recs if r["problems"])
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(passes), "samples": samples, "environment": environment(),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units_of.items()},
        "digests": [r["digest"] for r in passes[0]],
        "failures": failures,
    }
    with open(workdir / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def format_row(name: str, result: dict) -> str:
    cells = []
    for key, m in result["metrics"].items():
        cell = f"{key}={m['value']:.6g} {m['unit']}"
        if key.startswith("iter_ms"):
            cell += f" (n={result['samples']['iter_ms']})"
        cells.append(cell)
    failed, attempted = result["failed"], result["attempted"]
    head = f"{name} [trace={result['trace']} passes={result['passes']}] " \
           f"failed_frac={failed / attempted:.6g} ({failed}/{attempted} solves)"
    if result["trace"]:
        return head + "\n  " + "\n  ".join(cells)
    clock_cells = "  ".join(f"{k}={v:.6g}" for k, v in result["samples"]["wall_clock"].items())
    probe = result["samples"]["host_probe_ms"]
    return (head + "  " + "  ".join(cells) + "\n  on the wall clock, unscaled: " + clock_cells
            + f"\n  host-speed probe: {probe['p50']:.4g} ms median, {probe['p0']:.4g}-{probe['p100']:.4g} ms"
            + f" over {result['samples']['host_probes']} probes (reference {HostSpeed.REF_S * 1e3:g} ms)")


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced then traced, each in its own process."""
    results = {}
    for name in workloads.NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"error: {name} trace={trace} exited {proc.returncode}")
            with open(WORK / f"{name}-trace{trace}" / "result.json") as fh:
                results[(name, trace)] = json.load(fh)

    print("end-to-end (untraced), one row per workload:")
    for name in workloads.NAMES:
        print(format_row(name, results[(name, 0)]))
    print("per-layer (traced):")
    for key, unit in PER_LAYER.items():
        vals = "  ".join(f"{name}={results[(name, 1)]['metrics'][key]['value']:.6g}"
                         for name in workloads.NAMES)
        print(f"  {key} [{unit}]  {vals}")
    summary = {"seed": seed, "seconds": seconds, "environment": environment(), "workloads": {}}
    print("tracing overhead (traced minus plain wall_s of one pass, alternating in the traced run):")
    for name in workloads.NAMES:
        plain, traced = results[(name, 0)], results[(name, 1)]
        m = traced["metrics"]
        overhead = m["trace.wall_s"]["value"] - m["trace.untraced_wall_s"]["value"]
        same = plain["digests"] == traced["digests"]
        print(f"  {name}: {overhead:.3f} s; reports identical with and without tracing: {same}")
        summary["workloads"][name] = {
            "untraced": plain, "traced": traced, "trace_overhead_s": overhead,
            "reports_identical_across_trace": same,
        }
    with open(WORK / "results.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    runs = list(results.values())
    same = all(v["reports_identical_across_trace"] for v in summary["workloads"].values())
    return {
        "correct": same and all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {f"{r['workload']}.{k}": m for r in runs for k, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    vm = import_program()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(vm, args.workload, args.seed, args.seconds, bool(args.trace))
        print(format_row(args.workload, result))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import csv
import io
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import ZERO_F_PROBLEM, break_second_stacked_call, force_block_rows, problem_to_dict

from vmpadmm.admm import SubproblemError, VmPadmmRun, compute_sigma_theta
from vmpadmm.cli import CSV_COLUMNS, main, parse_generator_spec
from vmpadmm.problems import generate, problem_from_dict
from vmpadmm.schedule import ScheduleError, schedule_from_dict

CONSTANT_SCHEDULE = {
    "H": {"type": "scaled_identity", "scale": 1.0},
    "R": {"type": "zero"},
    "S": {"type": "zero"},
    "c": {"c0": 0.0, "law": "zero"},
    "k_max": 200,
}


@pytest.fixture
def schedule_file(tmp_path):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(CONSTANT_SCHEDULE))
    return str(path)


def solve_args(schedule_file, tmp_path, tag="run", **over):
    args = [
        "solve",
        "--problem", over.pop("problem", "gen:lasso:10x5:7"),
        "--schedule", schedule_file,
        "--theta", over.pop("theta", "1.0"),
        "--max-iters", over.pop("max_iters", "60"),
        "--log", str(tmp_path / f"{tag}.csv"),
        "--report", str(tmp_path / f"{tag}.json"),
    ]
    for key, val in over.items():
        args += [f"--{key}", val]
    return args


class TestGeneratorSpec:
    def test_roundtrip(self):
        p = parse_generator_spec("gen:lasso:10x5:7")
        q = generate("lasso", (10, 5), 7)
        assert p.name == q.name

    def test_seed_override(self):
        p = parse_generator_spec("gen:lasso:10x5:7", seed_override=3)
        assert p.name.endswith("-s3")

    def test_malformed_specs(self):
        from vmpadmm.cli import ConfigError

        for bad in ("gen:lasso:10x5", "gen:lasso:ten:1", "lasso:10x5:7:x"):
            with pytest.raises(ConfigError):
                parse_generator_spec(bad)


class TestSolveCommand:
    def test_exit_zero_and_artifacts(self, schedule_file, tmp_path):
        assert main(solve_args(schedule_file, tmp_path)) == 0
        with open(tmp_path / "run.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert list(rows[0].keys()) == CSV_COLUMNS
        report = json.loads((tmp_path / "run.json").read_text())
        assert report["all_pass"] is True
        assert report["iterations"] == 60
        for key in ("sigma_theta", "tau_theta", "C_S", "C_P", "E", "E_hat", "d0_upper_bound"):
            assert key in report["constants"]
        # every check the certificates compute is recorded: one pointwise and
        # six ergodic bound checks per k, primal_avg_identity included
        assert len(report["checks"]["bounds"]) == 7 * 60

    def test_bounds_dominate_residuals(self, schedule_file, tmp_path):
        main(solve_args(schedule_file, tmp_path))
        with open(tmp_path / "run.csv") as fh:
            for row in csv.DictReader(fh):
                assert float(row["res_max"]) <= float(row["bound_pointwise"])
                assert float(row["erg_res_max"]) <= float(row["bound_erg_res"])
                assert float(row["eps_sum"]) <= float(row["bound_erg_eps"])

    def test_csv_is_csv_writer_bytes(self, tmp_path):
        # the columnar lines are the bytes csv.writer writes row by row, for
        # an int k and floats at the edges of repr
        from vmpadmm.cli import _csv_lines, _write_csv

        edge = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e-7, 0.1, 1.0 / 3.0, 123456789.0, 1e16]
        columns = [np.arange(1, 13), *(np.roll(edge, j) for j in range(len(CSV_COLUMNS) - 1))]
        _write_csv(tmp_path / "lines.csv", _csv_lines(columns))
        with open(tmp_path / "writer.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_COLUMNS)
            w.writerows(zip(*(c.tolist() for c in columns)))
        assert (tmp_path / "lines.csv").read_bytes() == (tmp_path / "writer.csv").read_bytes()

    def test_rerun_is_byte_identical(self, schedule_file, tmp_path):
        main(solve_args(schedule_file, tmp_path, tag="a"))
        main(solve_args(schedule_file, tmp_path, tag="b"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_report_is_one_compact_line(self, schedule_file, tmp_path, monkeypatch):
        import vmpadmm.cli as cli

        docs = []
        write_json = cli._write_json
        monkeypatch.setattr(cli, "_write_json", lambda path, doc: docs.append(doc) or write_json(path, doc))
        assert main(solve_args(schedule_file, tmp_path)) == 0
        text = (tmp_path / "run.json").read_text()
        assert text.endswith("}\n") and text.count("\n") == 1 and ", " not in text and ": " not in text

        def sorted_keys(pairs):
            assert [key for key, _ in pairs] == sorted(key for key, _ in pairs)
            return dict(pairs)

        report = json.loads(text, object_pairs_hook=sorted_keys)
        # the same document as the indented encoding writes it
        indented = json.dumps(docs[0], indent=2, sort_keys=True)
        assert json.dumps(report, sort_keys=True) == json.dumps(json.loads(indented), sort_keys=True)

    def test_tiny_proximal_scales_run(self, tmp_path):
        # R and S need only be PSD: a scale below the definite floor is accepted
        tiny = {"type": "scaled_identity", "scale": 1e-13}
        sched = write_json(tmp_path / "tiny.json", dict(CONSTANT_SCHEDULE, R=tiny, S=tiny))
        assert main(solve_args(sched, tmp_path, problem="gen:lasso:10x5:1")) == 0
        assert json.loads((tmp_path / "run.json").read_text())["all_pass"] is True

    def test_stopping_summary(self, schedule_file, tmp_path):
        main(solve_args(schedule_file, tmp_path, rho="1e-3", eps="1e-1", max_iters="200"))
        report = json.loads((tmp_path / "run.json").read_text())
        assert isinstance(report["stopping"]["first_k_pointwise"], int)

    def test_truncated_run_reports_not_reached(self, schedule_file, tmp_path):
        code = main(solve_args(schedule_file, tmp_path, max_iters="1"))
        report = json.loads((tmp_path / "run.json").read_text())
        assert report["stopping"]["first_k_pointwise"] == "not reached"
        assert code in (0, 2)

    def test_seed_flag_overrides_spec_seed(self, schedule_file, tmp_path):
        main(solve_args(schedule_file, tmp_path, tag="seed", seed="3"))
        report = json.loads((tmp_path / "seed.json").read_text())
        assert report["problem"].endswith("-s3")

    def test_every_check_row_is_k_ok_slack(self, schedule_file, tmp_path):
        assert main(solve_args(schedule_file, tmp_path, problem="gen:box_qp:10:2", max_iters="20")) == 0
        report = json.loads((tmp_path / "run.json").read_text())
        # memberships: each iterate's own membership_x/_y, eps_subdiff and
        # eps_domain of both ergodic blocks
        assert len(report["checks"]["memberships"]) == 6 * 20
        for name, rows in report["checks"].items():
            for k, ok, slack in rows:
                assert isinstance(k, int) and ok is True and isinstance(slack, float), (name, k)

    def test_failing_membership_of_an_iterate_never_the_best(self, schedule_file, tmp_path, monkeypatch):
        # iterate 2 of lasso 10x5 seed 1 at theta = 1.5 is never the pointwise
        # best; its membership_y, failed in its certificate's distance, fails the run
        calls = break_second_stacked_call(monkeypatch, "l1", row=1)
        args = solve_args(schedule_file, tmp_path, problem="gen:lasso:10x5:1", theta="1.5", max_iters="32")
        assert main(args) == 2 and calls == [32, 32]
        report = json.loads((tmp_path / "run.json").read_text())
        assert report["all_pass"] is False
        assert {group: ks for group, ks in report["failures"].items() if ks} == {"memberships": [2]}

    def test_report_rows_are_step_checks(self, tmp_path):
        # a drift solve: the report's checks are, group by group and at every
        # k, the [k, ok, slack] rows of the library's block.checks, column by column
        drift = dict(CONSTANT_SCHEDULE, c={"c0": 0.5, "law": "inverse_square"}, k_max=30,
                     R={"type": "scaled_identity", "scale": 0.5})
        sched = write_json(tmp_path / "drift.json", drift)
        assert main(solve_args(sched, tmp_path, max_iters="30")) == 0
        report = json.loads((tmp_path / "run.json").read_text())
        p = generate("lasso", (10, 5), 7)
        run = VmPadmmRun(p, schedule_from_dict(drift, p.dims, A=p.A), compute_sigma_theta(1.0))
        rows = {}
        for blk in run.certified_blocks(30, rho=1e-6, eps=1e-6):
            assert blk.ok
            for group, checks in blk.checks.items():
                rows.setdefault(group, []).extend(
                    [k, c.ok[i], c.slack[i]] for i, k in enumerate(blk.iterate.k) for c in checks
                )
        assert run.k == report["iterations"] == 30
        assert list(rows) == ["hpe", "bounds", "memberships", "fejer"]
        assert rows == report["checks"]

    def test_json_problem_report_ignores_seed(self, schedule_file, tmp_path):
        # --seed only overrides gen: seeds; certification draws no random numbers
        problem = write_json(tmp_path / "box.json", problem_to_dict(generate("box_qp", 10, 3)))
        for seed in ("1", "2"):
            assert main(solve_args(schedule_file, tmp_path, tag=f"s{seed}", problem=problem, seed=seed)) == 0
        assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

    def test_certification_draws_no_random_numbers(self, schedule_file, tmp_path, monkeypatch):
        init = VmPadmmRun.__init__

        def no_rng(*args, **kwargs):
            raise AssertionError("certification drew random numbers")

        def init_then_forbid_rng(run, *args, **kwargs):
            init(run, *args, **kwargs)
            monkeypatch.setattr(np.random, "default_rng", no_rng)

        monkeypatch.setattr(VmPadmmRun, "__init__", init_then_forbid_rng)
        args = solve_args(schedule_file, tmp_path, problem="gen:box_qp:10:2", verify="hpe,bounds,memberships,fejer")
        assert main(args) == 0
        assert np.random.default_rng is no_rng


    def test_horizon_truncation_is_reported(self, tmp_path, capsys):
        sched = tmp_path / "short.json"
        sched.write_text(json.dumps(dict(CONSTANT_SCHEDULE, k_max=50)))
        assert main(solve_args(str(sched), tmp_path, max_iters="2000")) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--max-iters 2000" in err and "k_max=50" in err
        report = json.loads((tmp_path / "run.json").read_text())
        assert report["iterations"] == 50 and report["max_iters"] == 2000
        assert main(solve_args(str(sched), tmp_path, tag="fits", max_iters="50")) == 0
        assert capsys.readouterr().err == ""


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def l1_problem(tmp_path):
    """An l1 x-block: the solver needs a linearized R, and the reference
    solve does not support a nonsmooth f."""
    A = [[1.0, 0.5, 0.0, 0.2], [0.0, 1.0, 0.3, 0.0], [0.4, 0.0, 1.0, 0.1]]
    doc = {
        "A": A, "B": [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]], "b": [0.0, 0.0, 0.0],
        "f": {"type": "l1", "lambda": 0.1},
        "g": {"type": "quadratic", "Q": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
              "q": [1.0, -1.0, 0.5]},
    }
    return write_json(tmp_path / "l1.json", doc)


def infeasible_problem(tmp_path):
    """A = B = 0, b = 1: no (x, y) satisfies Ax + By = b."""
    doc = {
        "A": [[0.0]], "B": [[0.0]], "b": [1.0],
        "f": {"type": "quadratic", "Q": [[1.0]], "q": [0.0]},
        "g": {"type": "quadratic", "Q": [[1.0]], "q": [0.0]},
    }
    return write_json(tmp_path / "infeasible.json", doc)


def linearized_schedule(tmp_path):
    cfg = dict(CONSTANT_SCHEDULE, R={"type": "linearized", "tau": 6.0})
    return write_json(tmp_path / "linearized.json", cfg)


# A = 0, B = I, b = (5, 5), f = 0.5 ||x||^2 and y in [-1, 1]^2: no feasible point
INFEASIBLE_BOX = {
    "A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]], "b": [5.0, 5.0],
    "f": {"type": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0]},
    "g": {"type": "box", "l": [-1.0, -1.0], "u": [1.0, 1.0]},
}
# the curvature-less y-block: B = diag(1, 0) and S = 0 leave y_2 without curvature
NO_CURVATURE = {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 0.0]], "b": [1.0, 1.0], "f": {"type": "zero"}}
# case: (problem, schedule, the library's error, the start of the CLI's line)
SETUP_REFUSALS = {
    "dense_s_box_g": (
        problem_to_dict(generate("box_qp", 10, 2)),
        dict(CONSTANT_SCHEDULE, S={"type": "dense", "matrix": [[1.0 if i == j else 0.1 for j in range(5)] for i in range(5)]}),
        SubproblemError, "error: subproblem: box subproblem needs a diagonal quadratic part",
    ),
    "l1_without_curvature": (
        dict(NO_CURVATURE, g={"type": "l1", "lambda": 0.1}), CONSTANT_SCHEDULE,
        SubproblemError, "error: subproblem: l1 subproblem needs positive diagonal curvature",
    ),
    "box_without_curvature": (
        dict(NO_CURVATURE, g={"type": "box", "l": [-1.0, -1.0], "u": [1.0, 1.0]}), CONSTANT_SCHEDULE,
        SubproblemError, "error: subproblem: box subproblem needs positive diagonal curvature",
    ),
    "overflowing_system": (
        {"A": [[1e200, 1.0]], "B": [[1.0]], "b": [1.0],
         "f": {"type": "quadratic", "Q": [[1e200, 0.0], [0.0, 1.0]], "q": [0.0, 0.0]}, "g": {"type": "zero"}},
        dict(CONSTANT_SCHEDULE, c={"c0": 0.5, "law": "inverse_square"}),
        SubproblemError, "error: subproblem: x-subproblem system A^T H_0 A + R_0 overflows",
    ),
    "no_m0": (
        problem_to_dict(generate("lasso", (10, 5), 1)), dict(CONSTANT_SCHEDULE, H={"type": "scaled_identity", "scale": 2e12}),
        ScheduleError, "error: schedule H_0 gives no metric M_0",
    ),
}


class TestErrorPaths:
    @pytest.mark.parametrize("key,value", [
        ("A", [[float("nan"), 0.0], [0.0, 1.0]]),
        ("b", [1.0, float("inf")]),
        ("f", {"type": "l1", "lambda": float("nan")}),
        ("g", {"type": "box", "l": [float("-inf"), 0.0], "u": [1.0, 1.0]}),
    ])
    def test_non_finite_input_rejected(self, schedule_file, tmp_path, capsys, key, value):
        doc = {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 1.0],
               "f": {"type": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0]},
               "g": {"type": "zero"}}
        doc[key] = value
        problem = write_json(tmp_path / "nan.json", doc)  # json writes NaN/Infinity literals
        assert main(solve_args(schedule_file, tmp_path, problem=problem)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err or "finite lambda" in err

    @pytest.mark.parametrize("field,over", [
        ("R tau", {"R": {"type": "linearized", "tau": float("inf")}}),
        ("R tau", {"R": {"type": "linearized", "tau": float("nan")}}),
        ("H scale", {"H": {"type": "scaled_identity", "scale": float("inf")}}),
        ("S scale", {"S": {"type": "scaled_identity", "scale": float("nan")}}),
        ("R matrix entries", {"R": {"type": "dense", "matrix": [[1.0, 0.0], [0.0, float("nan")]]}}),
        ("c0", {"c": {"c0": float("inf"), "law": "inverse_square"}}),
        ("c0", {"c": {"c0": float("nan"), "law": "inverse_square"}}),
    ])
    def test_non_finite_schedule_rejected(self, tmp_path, capsys, field, over):
        sched = write_json(tmp_path / "nan_schedule.json", dict(CONSTANT_SCHEDULE, **over))
        assert main(solve_args(sched, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{field} must be finite" in err

    @pytest.mark.parametrize("kind,field,over", [
        ("schedule", "H scale", {"H": {"type": "scaled_identity", "scale": [1, 2]}}),
        ("schedule", "k_max", {"k_max": None}),
        ("schedule", "c", {"c": 5}),
        ("problem", "g lambda", {"g": {"type": "l1", "lambda": [1, 2]}}),
        ("problem", "f", {"f": 5}),
        ("problem", "problem", None),
        ("problem", "A", {"A": [1.0, 2.0]}),
        ("schedule", "a schedule must be a JSON object", None),
        ("problem", "A/B/b dimensions are inconsistent", {"b": [1.0, 2.0, 3.0]}),
        # a missing nested key reads as a missing top-level one does
        ("schedule", ": missing field 'scale'", {"H": {"type": "scaled_identity"}}),
        ("problem", ": missing field 'lambda'", {"g": {"type": "l1"}}),
    ])
    def test_wrong_typed_value_is_one_line(self, tmp_path, capsys, kind, field, over):
        problem = problem_to_dict(generate("lasso", (2, 2), 1))
        schedule = dict(CONSTANT_SCHEDULE)
        doc = problem if kind == "problem" else schedule
        if over is None:
            doc = [doc]  # a top-level list
        else:
            doc.update(over)
        paths = {name: write_json(tmp_path / f"{name}.json", d)
                 for name, d in (("problem", problem), ("schedule", schedule))}
        paths[kind] = write_json(tmp_path / f"{kind}.json", doc)
        assert main(solve_args(paths["schedule"], tmp_path, problem=paths["problem"])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"malformed {kind} file {paths[kind]}" in err and field in err

    def test_unwritable_log_is_one_line(self, schedule_file, tmp_path, capsys):
        args = solve_args(schedule_file, tmp_path)
        args[args.index("--log") + 1] = str(tmp_path / "missing" / "run.csv")
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "No such file or directory" in err and "missing" in err

    def test_non_diagonal_btb_reference_is_one_line(self, tmp_path, capsys):
        # an l1 g whose B^T B is not diagonal: the reference ADMM has no separable prox step;
        # S_0 = [[1, -1], [-1, 1]] makes the solver's own y-system B^T H_0 B + S_0 = 2 I diagonal
        doc = {"A": [[1.0]], "B": [[1.0, 1.0]], "b": [1.0],
               "f": {"type": "quadratic", "Q": [[1.0]], "q": [0.0]}, "g": {"type": "l1", "lambda": 0.1}}
        problem = write_json(tmp_path / "coupled.json", doc)
        sched = write_json(tmp_path / "coupling_s.json",
                           dict(CONSTANT_SCHEDULE, S={"type": "dense", "matrix": [[1.0, -1.0], [-1.0, 1.0]]}))
        assert main(solve_args(sched, tmp_path, problem=problem)) == 1
        err = capsys.readouterr().err
        assert err == "error: reference solve: plain ADMM needs B^T B diagonal for l1/box g\n"

    def test_dense_matrix_of_wrong_size_rejected_at_load(self, tmp_path, capsys):
        # R acts on x, which has dimension 4 for gen:lasso:4x2
        sched = write_json(tmp_path / "small_r.json",
                           dict(CONSTANT_SCHEDULE, R={"type": "dense", "matrix": [[1.0, 0.0], [0.0, 1.0]]}))
        assert main(solve_args(sched, tmp_path, problem="gen:lasso:4x2:1")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"malformed schedule file {sched}" in err
        assert "R dense matrix has shape (2, 2)" in err and "dimension 4" in err

    def test_unsupported_reference_is_one_line(self, tmp_path, capsys):
        args = solve_args(linearized_schedule(tmp_path), tmp_path, problem=l1_problem(tmp_path))
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "reference solve" in err and "quadratic/zero f only" in err

    def test_singular_reference_system_is_one_line(self, schedule_file, tmp_path, capsys):
        # the reference ADMM's x-system Q + A^T A is exactly singular
        docs = {
            "zero_a": {  # Q = 0 and A = 0
                "A": [[0.0]], "B": [[-1.0]], "b": [0.0],
                "f": {"type": "quadratic", "Q": [[0.0]], "q": [1.0]}, "g": {"type": "l1", "lambda": 0.1},
            },
            "unbounded_below": {  # f = x_2 on a free x_2; the KKT system is singular too
                "A": [[1.0, 0.0]], "B": [[1.0]], "b": [0.0],
                "f": {"type": "quadratic", "Q": [[0.0, 0.0], [0.0, 0.0]], "q": [0.0, 1.0]},
                "g": {"type": "quadratic", "Q": [[1.0]], "q": [0.0]},
            },
        }
        for name, doc in docs.items():
            problem = write_json(tmp_path / f"{name}.json", doc)
            assert main(solve_args(schedule_file, tmp_path, problem=problem)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: reference solve: ") and err.count("\n") == 1
            assert "x-system Q_f + beta A^T A is singular" in err

    def test_unsupported_subproblem_is_one_line(self, tmp_path, capsys):
        # a dense S makes the box y-subproblem non-separable
        dense = [[1.0 if i == j else 0.1 for j in range(5)] for i in range(5)]
        sched = write_json(tmp_path / "dense_s.json",
                           dict(CONSTANT_SCHEDULE, S={"type": "dense", "matrix": dense}))
        assert main(solve_args(sched, tmp_path, problem="gen:box_qp:10:2")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "subproblem" in err and "B^T H_0 B + S_0 must be diagonal" in err


    @pytest.mark.parametrize("spec,form", [
        ("gen:lasso:10:1", "lasso dims must be n x m"),
        ("gen:consensus_ls:4:1", "consensus_ls dims must be n_x x n_y x m"),
        ("gen:consensus_ls:4x3:1", "consensus_ls dims must be n_x x n_y x m"),
        ("gen:box_qp:10x5:1", "box_qp dims must be n,"),
    ])
    def test_generator_dims_of_wrong_arity(self, schedule_file, tmp_path, capsys, spec, form):
        assert main(solve_args(schedule_file, tmp_path, problem=spec)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert form in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,value,message", [
        ("rho", "nan", "rho and eps must be positive"),
        ("eps", "nan", "rho and eps must be positive"),
        ("sigma-margin", "-0.5", "sigma margin must be finite and >= 0, got -0.5"),
        ("sigma-margin", "nan", "sigma margin must be finite and >= 0, got nan"),
    ])
    def test_bad_number_flag_is_one_line(self, schedule_file, tmp_path, capsys, flag, value, message):
        assert main(solve_args(schedule_file, tmp_path, **{flag: value})) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_missing_problem_file(self, schedule_file, tmp_path, capsys):
        code = main(solve_args(schedule_file, tmp_path, problem=str(tmp_path / "nope.json")))
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_schedule(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(solve_args(str(bad), tmp_path))
        assert code == 1
        assert "schedule" in capsys.readouterr().err

    def test_schedule_missing_field(self, tmp_path, capsys):
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps({k: v for k, v in CONSTANT_SCHEDULE.items() if k != "R"}))
        assert main(solve_args(str(bad), tmp_path)) == 1
        assert "'R'" in capsys.readouterr().err

    def test_invalid_theta(self, schedule_file, tmp_path, capsys):
        assert main(solve_args(schedule_file, tmp_path, theta="1.62")) == 1
        assert "theta" in capsys.readouterr().err

    def test_unknown_verify_flag(self, schedule_file, tmp_path, capsys):
        assert main(solve_args(schedule_file, tmp_path, verify="hpe,bogus")) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("verify", ["", ","])
    def test_empty_verify_list_is_one_line(self, schedule_file, tmp_path, capsys, verify):
        # a certifying run that verifies no group would report all_pass vacuously
        assert main(solve_args(schedule_file, tmp_path, verify=verify)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--verify names no check group" in err and "('hpe', 'bounds', 'memberships', 'fejer')" in err
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("over,where", [
        ({"seed": "-3"}, "--seed"),
        ({"problem": "gen:lasso:10x5:-3"}, "generator spec 'gen:lasso:10x5:-3'"),
    ])
    def test_negative_seed_is_named(self, schedule_file, tmp_path, capsys, over, where):
        assert main(solve_args(schedule_file, tmp_path, **over)) == 1
        err = capsys.readouterr().err
        assert err == f"error: seed must be >= 0, got -3 from {where}\n"

    def test_linearized_r_indefinite_under_drift(self, tmp_path, capsys):
        # R_0 = tau I - A^T A is PSD, but H_1 = 1.5 H_0 makes R_1 indefinite
        A = generate("lasso", (4, 2), 1).A
        tau = 1.1 * float(np.linalg.eigvalsh(A.T @ A).max())
        sched = write_json(tmp_path / "drift_lin.json", {
            "H": {"type": "scaled_identity", "scale": 1.0},
            "R": {"type": "linearized", "tau": tau},
            "S": {"type": "zero"},
            "c": {"c0": 0.5, "law": "inverse_square"},
            "k_max": 20,
        })
        assert main(solve_args(sched, tmp_path, problem="gen:lasso:4x2:1")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not PSD" in err

    def test_linearized_r_indefinite_at_k0_fails_validation(self, tmp_path, capsys, monkeypatch):
        # a well-formed file whose R_0 = tau I - A^T A is indefinite loads, and
        # validation refuses it at k = 0 before any reference solve
        def no_reference(problem):
            raise AssertionError("reference_solve called on a schedule that fails validation")

        monkeypatch.setattr("vmpadmm.admm.reference_solve", no_reference)
        A = generate("lasso", (10, 5), 1).A
        tau = 0.9 * float(np.linalg.eigvalsh(A.T @ A)[-1])
        sched = write_json(tmp_path / "indefinite.json", dict(CONSTANT_SCHEDULE, R={"type": "linearized", "tau": tau}))
        assert main(solve_args(sched, tmp_path, problem="gen:lasso:10x5:1")) == 1
        assert capsys.readouterr().err == "error: schedule validation failed: R_k is not PSD, first at k = 0\n"

    @pytest.mark.parametrize("case", ["bad_theta", "unknown_flag", "missing_problem", "no_command"])
    def test_malformed_flag_is_one_line(self, schedule_file, tmp_path, capsys, case):
        # exit 2 is a verification failure: a flag error is a configuration error
        args = solve_args(schedule_file, tmp_path)
        argv = {
            "bad_theta": solve_args(schedule_file, tmp_path, theta="abc"),
            "unknown_flag": args + ["--bogus", "1"],
            "missing_problem": args[:1] + args[3:],
            "no_command": [],
        }[case]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["-h"], ["solve", "-h"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and "usage: vmpadmm" in capsys.readouterr().out

    def test_linearized_sandwich_failure_at_full_horizon_is_fast(self, tmp_path, capsys):
        # tau = 2 lambda_max(A^T A) keeps every R_k PSD but breaks the sandwich
        # at k = 0; the verdict over 10^6 steps takes no walk over k
        from vmpadmm.schedule import K_MAX_LIMIT

        A = generate("lasso", (200, 100), 1).A
        sched = write_json(tmp_path / "lin_fail.json", dict(
            CONSTANT_SCHEDULE, k_max=K_MAX_LIMIT, c={"c0": 0.5, "law": "inverse_square"},
            R={"type": "linearized", "tau": 2.0 * float(np.linalg.eigvalsh(A.T @ A)[-1])},
        ))
        t0 = time.perf_counter()
        assert main(solve_args(sched, tmp_path, problem="gen:lasso:200x100:1")) == 1
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "schedule validation failed at (k, family) = [(0, 'R'), (1, 'R')" in err

    def test_infeasible_problem_fails_fast(self, schedule_file, tmp_path, capsys):
        problem = infeasible_problem(tmp_path)
        t0 = time.perf_counter()
        assert main(solve_args(schedule_file, tmp_path, problem=problem)) == 1
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "reference solve" in err and "infeasible" in err

    def test_reference_iteration_cap_is_one_line(
        self, schedule_file, tmp_path, capsys, monkeypatch
    ):
        import vmpadmm.admm

        def capped(problem):
            raise RuntimeError("reference solver hit the iteration cap with residual 1.0 > 1e-10")

        monkeypatch.setattr(vmpadmm.admm, "reference_solve", capped)
        assert main(solve_args(schedule_file, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "reference solve" in err and "iteration cap" in err

    def test_uninvertible_h0_names_the_schedule(self, tmp_path, capsys):
        # H_0 = 2e12 I passes the reference solve, but H_0^-1 = 5e-13 I in M_0
        # fails the definite check: the line names the schedule's H
        sched = write_json(tmp_path / "big_h.json",
                           dict(CONSTANT_SCHEDULE, H={"type": "scaled_identity", "scale": 2e12}))
        assert main(solve_args(sched, tmp_path, problem="gen:lasso:10x5:1")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: schedule H_0 ") and err.count("\n") == 1
        assert "reference solve" not in err and "smallest eigenvalue is 5e-13" in err

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning on the way to the error line
    def test_overflowing_block_system_is_one_line(self, tmp_path, capsys):
        # every entry is finite, but A^T H_0 A overflows to inf
        problem = write_json(tmp_path / "overflow.json", {
            "A": [[1e200, 1.0]], "B": [[1.0]], "b": [1.0],
            "f": {"type": "quadratic", "Q": [[1e200, 0.0], [0.0, 1.0]], "q": [0.0, 0.0]},
            "g": {"type": "zero"},
        })
        sched = write_json(tmp_path / "drift.json",
                           dict(CONSTANT_SCHEDULE, c={"c0": 0.5, "law": "inverse_square"}))
        assert main(solve_args(sched, tmp_path, problem=problem)) == 1
        err = capsys.readouterr().err
        assert err == "error: subproblem: x-subproblem system A^T H_0 A + R_0 overflows\n"

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning on the way to the error line
    @pytest.mark.parametrize("case", list(SETUP_REFUSALS))
    def test_setup_refusal_needs_no_reference(self, case, tmp_path, capsys, monkeypatch):
        # validation, M_0 and both block systems come before the reference solve
        def no_reference(problem):
            raise AssertionError("reference_solve called on a run that set-up refuses")

        monkeypatch.setattr("vmpadmm.admm.reference_solve", no_reference)
        doc, sched_doc, error, line = SETUP_REFUSALS[case]
        problem = problem_from_dict(doc)
        with pytest.raises(error) as exc:
            VmPadmmRun(problem, schedule_from_dict(sched_doc, problem.dims, A=problem.A), compute_sigma_theta(1.0))
        problem_path = write_json(tmp_path / "problem.json", doc)
        assert main(solve_args(write_json(tmp_path / "schedule.json", sched_doc), tmp_path, problem=problem_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(line) and err.count("\n") == 1
        assert str(exc.value) in err

    @pytest.mark.parametrize("over", [
        {"S": {"type": "dense", "matrix": [[1.0, 0.1], [0.1, 1.0]]}},
        {"H": {"type": "scaled_identity", "scale": 1e13}},
    ], ids=["dense_s", "h_1e13"])
    def test_refusal_does_not_wait_for_a_reference_that_cannot_finish(self, over, tmp_path, capsys):
        # b = (5, 5) lies outside B y for y in [-1, 1]^2 while A = 0: the reference
        # runs toward its iteration cap, and the schedule is refused before it starts
        problem = write_json(tmp_path / "infeasible_box.json", INFEASIBLE_BOX)
        sched = write_json(tmp_path / "refused.json", dict(CONSTANT_SCHEDULE, **over))
        t0 = time.perf_counter()
        assert main(solve_args(sched, tmp_path, problem=problem)) == 1
        assert time.perf_counter() - t0 < 2.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("B^T H_0 B + S_0 must be diagonal" if "S" in over else "schedule H_0 gives no metric M_0") in err

    def test_huge_horizon_fails_fast(self, tmp_path, capsys):
        sched = write_json(tmp_path / "huge.json", dict(CONSTANT_SCHEDULE, k_max=10**12))
        t0 = time.perf_counter()
        assert main(solve_args(sched, tmp_path)) == 1
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "k_max" in err

    def test_broken_gamma_identity_is_one_line(self, tmp_path, capsys):
        # cond(H) = 1e5 passes the inversion cap, but r_gamma = H^-1 H r / theta
        # drifts from the primal residual beyond the identity's roundoff budget
        U = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)
        H = (U * np.logspace(0, 5, 4)) @ U.T
        sched = write_json(tmp_path / "ill_h.json",
                           dict(CONSTANT_SCHEDULE, H={"type": "dense", "matrix": H.tolist()}, k_max=50))
        assert main(solve_args(sched, tmp_path, problem="gen:consensus_ls:6x5x4:1", max_iters="50")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gamma residual identity violated beyond roundoff at k = ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["gen:box_qp:40:1", "gen:consensus_ls:20x15x10:1"])
    def test_large_penalty_oracle_failure_is_one_line(self, spec, tmp_path, capsys):
        # H = 1e8 I: the x-subproblem oracle fails at k = 1, before any row is
        # certified, and neither the log nor the report is written
        cfg = dict(CONSTANT_SCHEDULE, H={"type": "scaled_identity", "scale": 1e8})
        sched = write_json(tmp_path / "h8.json", cfg)
        assert main(solve_args(sched, tmp_path, problem=spec, max_iters="200")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: subproblem: x-subproblem optimality violated at k = 1: distance ")
        assert err.count("\n") == 1
        assert not (tmp_path / "run.csv").exists() and not (tmp_path / "run.json").exists()

    def test_sandwich_violation_exits_one(self, tmp_path, capsys):
        # drift law forbids the schedule's c_k > 1 in solver mode
        cfg = dict(CONSTANT_SCHEDULE, c={"c0": 2.0, "law": "inverse_square"})
        bad = tmp_path / "drift.json"
        bad.write_text(json.dumps(cfg))
        assert main(solve_args(str(bad), tmp_path)) == 1
        assert "validation" in capsys.readouterr().err


ZERO_G_PROBLEM = dict(
    ZERO_F_PROBLEM, g={"type": "zero"},
    f={"type": "quadratic", "Q": np.diag([1.0, 2.0, 0.5, 1.0]).tolist(), "q": [0.5, -0.5, 0.0, 1.0]},
)


class TestZeroIsQuadratic:
    """A ``zero`` function is the quadratic with Q = 0, q = 0: the explicit
    form writes the same CSV and report, apart from the problem's name."""

    @staticmethod
    def explicit(doc):
        """``doc`` with each zero function written as Q = 0, q = 0."""
        dims = {"f": len(doc["A"][0]), "g": len(doc["B"][0])}
        return dict(doc, **{
            key: {"type": "quadratic", "Q": np.zeros((n, n)).tolist(), "q": [0.0] * n}
            for key, n in dims.items() if doc[key]["type"] == "zero"
        })

    @pytest.mark.parametrize("law", ["zero", "inverse_square"])
    @pytest.mark.parametrize("problem", [ZERO_F_PROBLEM, ZERO_G_PROBLEM], ids=["zero_f", "zero_g"])
    def test_same_run_as_explicit_quadratic(self, tmp_path, problem, law):
        sched = write_json(tmp_path / "schedule.json",
                           dict(CONSTANT_SCHEDULE, c={"c0": 0.5 if law == "inverse_square" else 0.0, "law": law}))
        explicit = self.explicit(problem)
        assert explicit != problem
        outputs = []
        for tag, doc in (("zero", problem), ("explicit", explicit)):
            path = write_json(tmp_path / f"{tag}_problem.json", doc)
            assert main(solve_args(sched, tmp_path, tag=tag, problem=path)) == 0
            report = json.loads((tmp_path / f"{tag}.json").read_text())
            assert report.pop("problem") == path
            outputs.append(((tmp_path / f"{tag}.csv").read_bytes(), report))
        assert outputs[0] == outputs[1]


class TestBatchCommand:
    def test_inline_corpus(self, schedule_file, tmp_path):
        code = main([
            "batch",
            "--corpus", "gen:lasso:8x4:1,gen:box_qp:10:2",
            "--schedule", schedule_file,
            "--theta", "0.5",
            "--max-iters", "40",
            "--out-dir", str(tmp_path / "batch"),
        ])
        assert code == 0
        agg = json.loads((tmp_path / "batch" / "aggregate.json").read_text())
        assert agg["all_pass"] is True
        assert len(agg["instances"]) == 2
        assert (tmp_path / "batch" / "instance-000.csv").exists()

    def test_worst_slack_per_check_matches_instance_csv(self, schedule_file, tmp_path):
        out = tmp_path / "batch-worst"
        code = main([
            "batch", "--corpus", "gen:lasso:8x4:1,gen:box_qp:10:2", "--schedule", schedule_file,
            "--theta", "0.5", "--max-iters", "40", "--out-dir", str(out),
        ])
        assert code == 0
        agg = json.loads((out / "aggregate.json").read_text())
        for i, inst in enumerate(agg["instances"]):
            with open(out / f"instance-{i:03d}.csv") as fh:
                rows = list(csv.DictReader(fh))
            worst = inst["worst_slack"]
            for name, slack in (
                ("pointwise_res", lambda r: float(r["bound_pointwise"]) - float(r["res_max"])),
                ("ergodic_res", lambda r: float(r["bound_erg_res"]) - float(r["erg_res_max"])),
                ("ergodic_eps", lambda r: float(r["bound_erg_eps"]) - float(r["eps_sum"])),
                ("hpe", lambda r: float(r["hpe_slack"])),
            ):
                k, value = worst[name]
                expected = min(rows, key=slack)
                assert k == int(expected["k"])
                assert value == pytest.approx(slack(expected), rel=1e-12, abs=1e-15)
            assert {"fejer", "membership_x", "eps_subdiff_y", "primal_avg_identity"} <= set(worst)

    def test_corpus_file_and_isolation(self, schedule_file, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(["gen:lasso:8x4:1", "gen:bogus:8x4:1"]))
        code = main([
            "batch",
            "--corpus", str(corpus),
            "--schedule", schedule_file,
            "--theta", "1.0",
            "--max-iters", "30",
            "--out-dir", str(tmp_path / "batch2"),
        ])
        assert code == 2  # one instance errored; the other still ran
        agg = json.loads((tmp_path / "batch2" / "aggregate.json").read_text())
        assert agg["instances"][0]["all_pass"] is True
        assert "error" in agg["instances"][1]

    def test_unsupported_instance_recorded(self, tmp_path):
        corpus = write_json(tmp_path / "corpus.json", [l1_problem(tmp_path), "gen:lasso:8x4:1"])
        code = main([
            "batch", "--corpus", corpus, "--schedule", linearized_schedule(tmp_path),
            "--theta", "1.0", "--max-iters", "30", "--out-dir", str(tmp_path / "b4"),
        ])
        assert code == 2  # one instance errored; the other still ran
        agg = json.loads((tmp_path / "b4" / "aggregate.json").read_text())
        assert agg["instances"][0]["exit"] == 1
        assert "reference solve" in agg["instances"][0]["error"]
        assert agg["instances"][1]["all_pass"] is True

    def test_infeasible_instance_recorded(self, schedule_file, tmp_path):
        entries = [infeasible_problem(tmp_path), "gen:lasso:8x4:1"]
        corpus = write_json(tmp_path / "corpus.json", entries)
        code = main([
            "batch", "--corpus", corpus, "--schedule", schedule_file,
            "--theta", "1.0", "--max-iters", "30", "--out-dir", str(tmp_path / "b5"),
        ])
        assert code == 2
        agg = json.loads((tmp_path / "b5" / "aggregate.json").read_text())
        assert agg["instances"][0]["exit"] == 1
        assert "reference solve" in agg["instances"][0]["error"]
        assert agg["instances"][1]["all_pass"] is True

    def test_empty_corpus(self, schedule_file, tmp_path, capsys):
        corpus = tmp_path / "empty.json"
        corpus.write_text("[]")
        code = main([
            "batch", "--corpus", str(corpus), "--schedule", schedule_file,
            "--theta", "1.0", "--out-dir", str(tmp_path / "b3"),
        ])
        assert code == 1
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("theta", "7"), ("verify", "bogus"), ("verify", ","), ("rho", "-1"), ("max-iters", "0"),
        ("sigma-margin", "nan"), ("seed", "-1"), ("schedule", None),
    ])
    def test_bad_run_flag_is_refused_once(self, schedule_file, tmp_path, capsys, flag, value):
        # a flag every instance shares is decided before the first solve: solve's
        # line, exit 1 and no output directory, not an error per instance and exit 2
        value = str(tmp_path / "missing.json") if value is None else value
        assert main(solve_args(schedule_file, tmp_path, **{flag: value})) == 1
        line = capsys.readouterr().err
        assert line.startswith("error: ") and line.count("\n") == 1
        argv = ["batch", "--corpus", "gen:lasso:8x4:1,gen:box_qp:10:2", "--schedule", schedule_file,
                "--theta", "1.0", "--max-iters", "30", "--out-dir", str(tmp_path / "b7"), f"--{flag}", value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == line and captured.out == ""
        assert not (tmp_path / "b7").exists()

    def test_sigma_theta_is_computed_once_per_batch(self, schedule_file, tmp_path, monkeypatch):
        import vmpadmm.cli

        calls = []
        monkeypatch.setattr(vmpadmm.cli, "compute_sigma_theta",
                            lambda *a, **k: calls.append(a) or compute_sigma_theta(*a, **k))
        assert main([
            "batch", "--corpus", "gen:lasso:8x4:1,gen:lasso:8x4:2,gen:box_qp:10:2", "--schedule", schedule_file,
            "--theta", "1.0", "--max-iters", "30", "--out-dir", str(tmp_path / "b8"),
        ]) == 0
        assert calls == [(1.0,)]

    @pytest.mark.parametrize("text,message", [
        (None, "corpus file not found: "),
        ("[not json", "malformed corpus file "),
        ('["gen:lasso:8x4:1", 3]', "corpus file must hold a JSON list of problem entries"),
        ('{"a": "gen:lasso:8x4:1"}', "corpus file must hold a JSON list of problem entries"),
    ])
    def test_bad_corpus_file_is_one_line(self, schedule_file, tmp_path, capsys, text, message):
        corpus = tmp_path / "corpus.json"
        if text is not None:
            corpus.write_text(text)
        code = main([
            "batch", "--corpus", str(corpus), "--schedule", schedule_file,
            "--theta", "1.0", "--out-dir", str(tmp_path / "b6"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "b6").exists()


LARGE_PENALTY = dict(CONSTANT_SCHEDULE, H={"type": "scaled_identity", "scale": 1e6}, k_max=300)
LARGE_PENALTY_PROBLEM = "gen:box_qp:40:2"  # under H = 1e6 I it fails membership_x at 292 of 300 k


class TestVerifyOnlyTrimsTheReport:
    """``--verify`` names the groups whose per-k rows the report's ``checks``
    lists; ``all_pass``, ``failures``, ``worst_slack`` and the exit code cover
    every group.  The run used fails only ``memberships``."""

    @pytest.fixture(scope="class")
    def full(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("full")
        sched = write_json(tmp / "h6.json", LARGE_PENALTY)
        assert main(solve_args(sched, tmp, problem=LARGE_PENALTY_PROBLEM, max_iters="300")) == 2
        return sched, json.loads((tmp / "run.json").read_text()), (tmp / "run.csv").read_bytes()

    @pytest.mark.parametrize("verify", ["hpe,bounds,fejer", "hpe"])
    def test_unreported_group_still_fails_the_run(self, full, tmp_path, verify):
        sched, report, log = full
        assert len(report["failures"]["memberships"]) == 292 and report["all_pass"] is False
        args = solve_args(sched, tmp_path, problem=LARGE_PENALTY_PROBLEM, max_iters="300", verify=verify)
        assert main(args) == 2
        sub = json.loads((tmp_path / "run.json").read_text())
        assert sub["all_pass"] is False and sub["failures"] == report["failures"]
        groups = verify.split(",")
        assert sub["verify"] == groups and sub["checks"] == {g: report["checks"][g] for g in groups}
        assert (tmp_path / "run.csv").read_bytes() == log
        drop = ("checks", "verify")
        assert {k: v for k, v in sub.items() if k not in drop} == {k: v for k, v in report.items() if k not in drop}

    @pytest.mark.parametrize("verify,groups", [("hpe,hpe", ["hpe"]), ("fejer,hpe,fejer", ["fejer", "hpe"])])
    def test_repeated_group_is_named_once(self, full, tmp_path, verify, groups):
        # a group named twice is reported once, where it is first named
        sched, report, _ = full
        args = solve_args(sched, tmp_path, problem=LARGE_PENALTY_PROBLEM, max_iters="300", verify=verify)
        assert main(args) == 2
        sub = json.loads((tmp_path / "run.json").read_text())
        assert sub["verify"] == groups and sub["checks"] == {g: report["checks"][g] for g in groups}

    def test_batch_verdict_covers_every_group(self, full, tmp_path):
        sched = full[0]
        code = main([
            "batch", "--corpus", LARGE_PENALTY_PROBLEM, "--schedule", sched, "--theta", "1.0",
            "--max-iters", "300", "--verify", "hpe,bounds,fejer", "--out-dir", str(tmp_path / "b"),
        ])
        assert code == 2
        agg = json.loads((tmp_path / "b" / "aggregate.json").read_text())
        assert agg["all_pass"] is False
        (inst,) = agg["instances"]
        assert inst["exit"] == 2 and inst["all_pass"] is False
        assert inst["worst_slack"]["membership_x"][1] < 0.0 and "eps_subdiff_y" in inst["worst_slack"]


# -- malformed input: one field of a valid file replaced by a wrong-typed value

VALID_PROBLEMS = {
    "box": {"name": "tiny-box", "A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
            "b": [1.0, 0.5], "f": {"type": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0]},
            "g": {"type": "box", "l": [-1.0, -1.0], "u": [1.0, 1.0]}},
    "l1": {"name": "tiny-l1", "A": [[1.0, 0.0], [0.0, 1.0]], "B": [[-1.0, 0.0], [0.0, -1.0]],
           "b": [0.0, 0.0], "f": {"type": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]], "q": [1.0, -0.5]},
           "g": {"type": "l1", "lambda": 0.1}},
}
VALID_SCHEDULES = {
    "dense": {"H": {"type": "scaled_identity", "scale": 1.0},
              "R": {"type": "dense", "matrix": [[0.5, 0.0], [0.0, 0.5]]}, "S": {"type": "zero"},
              "c": {"c0": 0.5, "law": "inverse_square"}, "k_max": 20},
    "linearized": {"H": {"type": "scaled_identity", "scale": 1.0}, "R": {"type": "linearized", "tau": 2.0},
                   "S": {"type": "zero"}, "c": {"c0": 0.0, "law": "zero"}, "k_max": 20},
}


def field_paths(doc, prefix=()):
    """Every (nested) key path of a JSON object."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


FIELDS = [("problem", name, path) for name, doc in VALID_PROBLEMS.items() for path in field_paths(doc)]
FIELDS += [("schedule", name, path) for name, doc in VALID_SCHEDULES.items() for path in field_paths(doc)]
WRONG_VALUES = st.one_of(
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.none(),
    st.text(max_size=6),
    st.integers(-5, 50),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), WRONG_VALUES)
def test_malformed_field_exits_cleanly(tmp_path_factory, target, value):
    kind, name, path = target
    docs = {"problem": VALID_PROBLEMS["box"], "schedule": VALID_SCHEDULES["dense"]}
    doc = docs[kind] = json.loads(json.dumps((VALID_PROBLEMS if kind == "problem" else VALID_SCHEDULES)[name]))
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value
    work = tmp_path_factory.mktemp("malformed")
    problem, schedule = (write_json(work / f"{k}.json", docs[k]) for k in ("problem", "schedule"))
    args = ["solve", "--problem", problem, "--schedule", schedule, "--theta", "1.0", "--max-iters", "3",
            "--log", str(work / "run.csv"), "--report", str(work / "run.json")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


class TestBlockCertification:
    """A block of iterations certified in one pass gives every verdict, the
    stopping iterations and the CSV of certifying one iteration at a time."""

    @staticmethod
    def linearized_drift():
        A = generate("lasso", (10, 5), 3).A
        tau = 3.0 * float(np.linalg.eigvalsh(A.T @ A)[-1])  # sandwiched for c_0 = 0.5
        return dict(CONSTANT_SCHEDULE, R={"type": "linearized", "tau": tau},
                    c={"c0": 0.5, "law": "inverse_square"}, k_max=40)

    @staticmethod
    def solve(tmp_path, tag, problem, schedule, rho, max_iters="40"):
        sched = tmp_path / f"{tag}-schedule.json"
        sched.write_text(json.dumps(schedule))
        args = solve_args(str(sched), tmp_path, tag=tag, problem=problem, max_iters=max_iters, rho=rho, eps=rho)
        main(args)
        with open(tmp_path / f"{tag}.csv") as fh:
            rows = list(csv.reader(fh))
        return rows, json.loads((tmp_path / f"{tag}.json").read_text())

    CASES = [
        *[(spec, name, "0.1") for spec in ("gen:lasso:10x5:3", "gen:consensus_ls:6x5x4:5")
          for name in ("constant", "inverse_square")],  # the golden corpus
        ("gen:lasso:10x5:3", "linearized_drift", "1e-6"),
    ]

    @pytest.mark.parametrize("problem,schedule,rho", CASES)
    def test_blocks_match_one_iteration_at_a_time(self, problem, schedule, rho, tmp_path, monkeypatch):
        from test_golden import SCHEDULES

        cfg = self.linearized_drift() if schedule == "linearized_drift" else SCHEDULES[schedule]
        rows, report = self.solve(tmp_path, "block", problem, cfg, rho)
        force_block_rows(monkeypatch, 1)
        self.assert_same_solve(rows, report, *self.solve(tmp_path, "one", problem, cfg, rho))

    def test_one_pass_per_block_above_dimension_128(self, tmp_path, monkeypatch):
        # lasso 200x100 has the product-space dimension 400; its 45 iterations
        # under drift are certified in two blocks, each in one pass
        lengths = []
        blocks = VmPadmmRun.certified_blocks
        monkeypatch.setattr(VmPadmmRun, "certified_blocks",
                            lambda run, *a: (lengths.append(len(b)) or b for b in blocks(run, *a)))
        cfg = dict(CONSTANT_SCHEDULE, c={"c0": 0.5, "law": "inverse_square"})
        rows, report = self.solve(tmp_path, "block", "gen:lasso:200x100:1", cfg, "1e-6", max_iters="45")
        assert lengths == [32, 13] and report["iterations"] == 45
        force_block_rows(monkeypatch, 1)
        self.assert_same_solve(rows, report, *self.solve(tmp_path, "one", "gen:lasso:200x100:1", cfg, "1e-6",
                                                          max_iters="45"))
        assert lengths[2:] == [1] * 45

    @pytest.mark.parametrize("problem,lengths", [
        ("gen:lasso:10x5:1", [102, 102, 96]),  # product-space dimension 20
        ("gen:consensus_ls:20x15x10:1", [45] * 6 + [30]),  # dimension 45
    ])
    def test_blocks_sized_by_memory_below_dimension_64(self, problem, lengths, tmp_path, monkeypatch):
        # below dimension 64 a block holds 2048 // dimension rows; the CSV
        # and JSON bytes are those of the same solve in 32-row blocks
        seen = []
        blocks = VmPadmmRun.certified_blocks
        monkeypatch.setattr(VmPadmmRun, "certified_blocks",
                            lambda run, *a: (seen.append(len(b)) or b for b in blocks(run, *a)))
        cfg = dict(CONSTANT_SCHEDULE, c={"c0": 0.5, "law": "inverse_square"}, k_max=300)
        _, report = self.solve(tmp_path, "block", problem, cfg, "1e-12", max_iters="300")
        assert seen == lengths and report["iterations"] == 300
        force_block_rows(monkeypatch, 32)
        self.solve(tmp_path, "rows32", problem, cfg, "1e-12", max_iters="300")
        assert seen[len(lengths):] == [32] * 9 + [12]
        for ext in ("csv", "json"):
            assert (tmp_path / f"block.{ext}").read_bytes() == (tmp_path / f"rows32.{ext}").read_bytes(), ext

    @staticmethod
    def assert_same_solve(rows, report, one_rows, one):
        for key in ("iterations", "all_pass", "failures", "stopping"):
            assert report[key] == one[key], key
        assert list(report["checks"]) == list(one["checks"])
        for group, checks in report["checks"].items():
            assert [c[:2] for c in checks] == [c[:2] for c in one["checks"][group]], group
            np.testing.assert_allclose([c[2] for c in checks], [c[2] for c in one["checks"][group]],
                                       rtol=1e-9, atol=1e-12, err_msg=group)
        assert rows[0] == one_rows[0] and len(rows) == len(one_rows) == report["iterations"] + 1
        assert [r[0] for r in rows] == [r[0] for r in one_rows]
        np.testing.assert_allclose(np.array([r[1:] for r in rows[1:]], float),
                                   np.array([r[1:] for r in one_rows[1:]], float), rtol=1e-9, atol=1e-12)

    def test_stop_inside_a_block_keeps_its_rows(self, tmp_path):
        # gen:lasso:10x5:3 under the constant schedule stops at k = 22, inside
        # the first block: the log ends there
        from test_golden import SCHEDULES

        rows, report = self.solve(tmp_path, "stop", "gen:lasso:10x5:3", SCHEDULES["constant"], "0.1")
        assert len(rows) == 1 + 22 and report["iterations"] == 22
        assert max(report["stopping"].values()) == 22

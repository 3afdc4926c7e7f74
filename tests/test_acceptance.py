"""Acceptance suite: every theoretical guarantee checked on a seeded sweep.

One sweep (20 instances x 3 stepsizes x 2 metric schedules, 500 iterations
each) feeds the per-iteration criteria; the remaining criteria run their own
dedicated experiments.  Each test prints a single PASS/FAIL line.
"""

import math
import time
from itertools import islice

import numpy as np
import pytest
from helpers import sampled_eps_check

from vmpadmm.admm import VmPadmmRun, compute_sigma_theta, sigma_feasible
from vmpadmm.linalg import PsdOperator
from vmpadmm.problems import generate, plain_admm_iterates
from vmpadmm.schedule import constant_schedule, schedule_from_dict

K_MAX = 500
THETAS = (0.5, 1.0, 1.5)
SAMPLED_KS = (1, 2, 5, 10, 20, 50, 100, 200, 350, 500)  # where the sampled oracle re-checks

INSTANCES = [
    ("lasso", (10, 5), 1), ("lasso", (20, 10), 2), ("lasso", (30, 15), 3),
    ("lasso", (50, 25), 4), ("lasso", (15, 8), 5), ("lasso", (40, 20), 6),
    ("lasso", (25, 12), 7), ("lasso", (35, 18), 8),
    ("box_qp", 10, 11), ("box_qp", 16, 12), ("box_qp", 20, 13),
    ("box_qp", 28, 14), ("box_qp", 34, 15), ("box_qp", 40, 16),
    ("consensus_ls", (8, 6, 5), 21), ("consensus_ls", (12, 10, 7), 22),
    ("consensus_ls", (16, 12, 9), 23), ("consensus_ls", (10, 8, 6), 24),
    ("consensus_ls", (20, 15, 10), 25), ("consensus_ls", (6, 5, 4), 26),
]


def make_schedule(dims, A, decaying):
    if not decaying:
        return constant_schedule(dims, K_MAX, h_scale=1.0)
    cfg = {
        "H": {"type": "scaled_identity", "scale": 1.0},
        "R": {"type": "zero"},
        "S": {"type": "zero"},
        "c": {"c0": 0.5, "law": "inverse_square"},
        "k_max": K_MAX,
    }
    return schedule_from_dict(cfg, dims, A=A)


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else "")
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """Run the full corpus sweep once, collecting per-criterion tallies."""
    t0 = time.time()
    problems = {(k, s): generate(k, d, s) for k, d, s in INSTANCES}
    refs = {}
    records = []
    for (kind, seed), problem in problems.items():
        for theta in THETAS:
            params = compute_sigma_theta(theta)
            for decaying in (False, True):
                sched = make_schedule(problem.dims, problem.A, decaying)
                if (kind, seed) not in refs:
                    run = VmPadmmRun(problem, sched, params)
                    refs[(kind, seed)] = run.reference
                else:
                    run = VmPadmmRun(problem, sched, params, reference=refs[(kind, seed)])
                rec = {
                    "key": (kind, seed, theta, decaying),
                    "hpe_rel_slack": np.inf,
                    "pw_violations": 0,
                    "erg_res_violations": 0,
                    "erg_eps_violations": 0,
                    "eps_neg_violations": 0,
                    "eps_decomp_violations": 0,
                    "fejer_violations": 0,
                    "pw_membership_violations": 0,
                    "erg_membership_failures": [],
                    "step_failures": 0,
                }
                # rho = eps = 0: short of an exact solution the loop never stops before K_MAX;
                # each check is a column over the block's iterations, its failures counted
                for blk in run.certified_blocks(K_MAX, rho=0.0, eps=0.0):
                    it, pw, erg, hc = blk.iterate, blk.pointwise, blk.ergodic, blk.hpe_check
                    rec["hpe_rel_slack"] = min(rec["hpe_rel_slack"], float(np.min(hc.slack / (1.0 + hc.rhs))))
                    rec["pw_violations"] += np.count_nonzero(pw.dual_max > pw.bound_residual)
                    rec["pw_membership_violations"] += np.count_nonzero(
                        ~np.logical_and.reduce([c.ok for c in blk.memberships.values()])
                    )
                    ch = erg.checks
                    rec["erg_res_violations"] += np.count_nonzero(~ch["ergodic_res"].ok)
                    rec["erg_eps_violations"] += np.count_nonzero(~ch["ergodic_eps"].ok)
                    rec["eps_neg_violations"] += np.count_nonzero(~(ch["eps_x_nonneg"].ok & ch["eps_y_nonneg"].ok))
                    rec["eps_decomp_violations"] += np.count_nonzero(~ch["eps_decomposition"].ok)
                    rec["fejer_violations"] += np.count_nonzero(~blk.fejer.ok)
                    step_ok = np.logical_and.reduce([c.ok for group in blk.checks.values() for c in group])
                    rec["step_failures"] += np.count_nonzero(~step_ok)
                    erg_ok = {c.name: c.ok for c in erg.memberships.values()}
                    rows = ~np.logical_and.reduce(list(erg_ok.values())) | np.isin(it.k, SAMPLED_KS)
                    for i in np.flatnonzero(rows):  # the failing rows and the sampled ks
                        k = int(it.k[i])
                        bad = [name for name, ok in erg_ok.items() if not ok[i]]
                        if k in SAMPLED_KS:
                            rng = np.random.default_rng(1000 + k)
                            gt = erg.gamma_tilde[i]
                            blocks = (
                                ("f", problem.f, erg.r_x[i] + problem.A.T @ gt, erg.x[i], erg.eps_x[i]),
                                ("g", problem.g, erg.r_y[i] + problem.B.T @ gt, erg.y[i], erg.eps_y[i]),
                            )
                            bad += [f"sampled {name}" for name, desc, s, u, eps in blocks
                                    if not sampled_eps_check(desc, s, u, eps, rng)]
                        if bad:
                            rec["erg_membership_failures"].append((k, bad))
                assert run.k == K_MAX
                records.append(rec)
    return {"records": records, "elapsed": time.time() - t0}


class TestSweepCriteria:
    def test_hpe_embedding(self, sweep):
        worst = min(r["hpe_rel_slack"] for r in sweep["records"])
        elapsed = sweep["elapsed"]
        report(
            "HPE embedding: relative-error condition holds every iteration",
            worst >= -1e-8,
            f"worst relative slack {worst:.3e}, sweep {elapsed:.0f}s",
        )

    def test_pointwise_rate(self, sweep):
        bad = sum(r["pw_violations"] for r in sweep["records"])
        report("pointwise O(1/sqrt(k)) dual-residual bound", bad == 0, f"{bad} violations")

    def test_ergodic_rate(self, sweep):
        bad_res = sum(r["erg_res_violations"] for r in sweep["records"])
        bad_eps = sum(r["erg_eps_violations"] for r in sweep["records"])
        bad_neg = sum(r["eps_neg_violations"] for r in sweep["records"])
        bad_dec = sum(r["eps_decomp_violations"] for r in sweep["records"])
        report(
            "ergodic O(1/k) residual and eps bounds with decomposition",
            bad_res == 0 and bad_eps == 0 and bad_neg == 0 and bad_dec == 0,
            f"res={bad_res} eps={bad_eps} neg={bad_neg} decomp={bad_dec}",
        )

    def test_fejer_bound(self, sweep):
        bad = sum(r["fejer_violations"] for r in sweep["records"])
        report("metric-drift Fejer bound against reference solution", bad == 0, f"{bad} violations")

    def test_one_verdict_per_step(self, sweep):
        bad = sum(r["step_failures"] for r in sweep["records"])
        report("every certified step's one verdict (step.ok) passes", bad == 0, f"{bad} failing steps")

    def test_membership_certificates(self, sweep):
        pw_bad = sum(r["pw_membership_violations"] for r in sweep["records"])
        erg_bad = [f for r in sweep["records"] for f in r["erg_membership_failures"]]
        report(
            "pointwise inclusions and exact ergodic eps-subdifferential memberships at every k, "
            "with sampled cross-checks",
            pw_bad == 0 and not erg_bad,
            f"pointwise={pw_bad}, ergodic failures={erg_bad[:3]}",
        )


class TestStandardAdmmEquivalence:
    def test_reduction_to_textbook_admm(self):
        worst = 0.0
        for seed in range(10):
            problem = generate("lasso", (12, 6), 100 + seed)
            for beta in (0.5, 1.0, 2.0):
                params = compute_sigma_theta(1.0)
                sched = constant_schedule(problem.dims, 110, h_scale=beta)
                run = VmPadmmRun(problem, sched, params)
                for ref in islice(plain_admm_iterates(problem, beta=beta), 100):
                    it = run.step()
                    for ours, theirs in zip((it.x, it.y, it.gamma), ref):
                        worst = max(worst, float(np.abs(ours - theirs).max()))
        report(
            "reduction to standard ADMM (H=beta*I, R=S=0, theta=1)",
            worst <= 1e-10,
            f"max coordinate deviation {worst:.3e}",
        )


class TestDualNormIdentity:
    def test_identity_and_off_range(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        off_range_ok = True
        for i in range(200):
            dim = int(rng.integers(2, 12))
            rank = max(1, dim // 2) if i % 2 else dim
            G = rng.normal(size=(dim, rank))
            M = PsdOperator(G @ G.T)
            w = rng.normal(size=dim)
            norm_w = M.seminorm(w)
            dev = abs(M.dual_seminorm_general(M.apply(w)) - norm_w) / (1.0 + norm_w)
            worst = max(worst, dev)
            if rank < dim:
                # a vector with a null-space component is off the range
                null = np.linalg.svd(M.matrix)[2][-1]
                off_range_ok &= M.dual_seminorm_general(M.apply(w) + null) == np.inf
        report(
            "dual seminorm identity ||Mw||*_M = ||w||_M and +inf off range",
            worst <= 1e-9 and off_range_ok,
            f"worst relative deviation {worst:.3e}",
        )


class TestSigmaThetaCorrectness:
    def test_grid_feasibility_and_closed_form(self):
        all_ok = True
        for theta in np.linspace(0.01, 1.60, 50):
            theta = float(theta)
            params = compute_sigma_theta(theta)
            feasible = sigma_feasible(theta, params.sigma)
            boundary_tight = not sigma_feasible(theta, params.sigma - params.margin - 1e-6)
            all_ok &= feasible and boundary_tight
        one = compute_sigma_theta(1.0)
        closed_form = abs(one.sigma - (0.5 + one.margin)) <= 1e-6
        report(
            "sigma(theta): admissible, boundary-tight, theta=1 closed form",
            all_ok and closed_form,
            f"sigma(1)={one.sigma:.6f}",
        )


class TestStoppingSanity:
    def test_empirical_stop_within_theoretical_bound(self):
        rho = 1e-3
        problem = generate("lasso", (10, 5), 7)
        params = compute_sigma_theta(1.0)
        sched = constant_schedule(problem.dims, 5000, h_scale=1.0)
        run = VmPadmmRun(problem, sched, params)
        first_k = next(
            (blk.first_k_pointwise for blk in run.certified_blocks(5000, rho, rho) if blk.first_k_pointwise),
            None,
        )
        # the pointwise bound is C / sqrt(k), so it reaches rho at k = (C / rho)^2
        k_theory = math.ceil(run.bounds.pointwise_rhs(1) ** 2 / rho**2)
        report(
            "pointwise stopping iteration within the theoretical complexity bound",
            first_k is not None and first_k <= k_theory,
            f"empirical k={first_k}, theoretical bound {k_theory}",
        )

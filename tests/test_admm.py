import dataclasses
from itertools import islice

import numpy as np
import pytest
from helpers import identity, sampled_eps_check, sigma_feasible_scalar, zero_operator

from vmpadmm import admm
from vmpadmm.admm import (
    BlockSystem,
    SubproblemError,
    ThetaParams,
    VmPadmmRun,
    compute_d0_admm,
    compute_sigma_theta,
    sigma_feasible,
    solve_x_subproblem,
    tau_theta,
    update_multiplier,
)
from vmpadmm.hpe import BoundCheck
from vmpadmm.linalg import BlockDiagOperator, PsdOperator
from vmpadmm.problems import FunctionDescriptor, ProblemSpec, generate, reference_solve
from vmpadmm.schedule import THETA_MAX, ScheduleError, assemble_Mk, constant_schedule, schedule_from_dict


def replaced(obj, path, value):
    """A copy of ``obj`` with the dataclass field or dict key at ``path`` set
    to ``value``, as ``dataclasses.replace`` one level at a time."""
    head, *rest = path
    new = replaced(obj[head] if isinstance(obj, dict) else getattr(obj, head), rest, value) if rest else value
    return {**obj, head: new} if isinstance(obj, dict) else dataclasses.replace(obj, **{head: new})


def scalar_problem():
    """min 0.5 x^2 + 0.5 y^2  s.t.  x + y = 1 (solution x=y=0.5, gamma=0.5)."""
    f = FunctionDescriptor("quadratic", 1, Q=np.eye(1), q=np.zeros(1))
    g = FunctionDescriptor("quadratic", 1, Q=np.eye(1), q=np.zeros(1))
    return ProblemSpec(f, g, np.eye(1), np.eye(1), np.ones(1), name="scalar")


class TestSigmaTheta:
    def test_theta_one_closed_form(self):
        # at theta = 1 the comparison matrix is diag(2s-1, s): minimal s = 0.5
        params = compute_sigma_theta(1.0, margin=1e-3)
        assert params.sigma == pytest.approx(0.5 + 1e-3, abs=1e-6)

    def test_feasible_across_theta_grid(self):
        for theta in np.linspace(0.01, 1.60, 50):
            params = compute_sigma_theta(float(theta))
            assert sigma_feasible(float(theta), params.sigma)
            # minimal point: just below the pre-margin boundary is infeasible
            below = params.sigma - params.margin - 1e-6
            assert not sigma_feasible(float(theta), below)

    def test_array_matches_scalar_over_grid(self):
        grid = np.arange(1, 10_001) / 10_001.0  # the scan grid of compute_sigma_theta
        for theta in np.linspace(0.005, THETA_MAX - 0.005, 200).tolist():
            scalar = [sigma_feasible_scalar(theta, s) for s in grid.tolist()]
            assert sigma_feasible(theta, grid).tolist() == scalar

    @pytest.mark.parametrize("theta,sigma", [
        (0.3, 0.7780211530940412), (0.5, 0.6801287848334613), (1.0, 0.501000000095358),
        (1.5, 0.7181292729812101), (1.6, 0.9497268906356741),
    ])
    def test_sigma_values_unchanged(self, theta, sigma):
        # recorded from the scalar grid scan that the vectorized one replaced
        assert compute_sigma_theta(theta).sigma == sigma

    def test_tau_formula_example(self):
        # theta=1, sigma=0.501: tau = 8 * 0.501 * max(1, 1) / 1 = 4.008
        assert tau_theta(1.0, 0.501) == pytest.approx(4.008)

    def test_theta_boundaries_excluded(self):
        for theta in (0.0, 1e-13, THETA_MAX, THETA_MAX - 1e-13, 2.0):
            with pytest.raises(ValueError, match="theta"):
                compute_sigma_theta(theta)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="admissibility"):
            ThetaParams(theta=1.0, sigma=0.3, tau=tau_theta(1.0, 0.3))
        with pytest.raises(ValueError, match="tau"):
            ThetaParams(theta=1.0, sigma=0.6, tau=99.0)

    def test_margin_too_large_rejected(self):
        with pytest.raises(RuntimeError, match="leaves"):
            compute_sigma_theta(1.6, margin=0.2)

    @pytest.mark.parametrize("margin", [-0.5, float("nan"), float("inf")])
    def test_bad_margin_rejected(self, margin):
        with pytest.raises(ValueError, match="sigma margin"):
            compute_sigma_theta(1.0, margin=margin)

    def test_zero_margin_is_valid(self):
        assert sigma_feasible(1.0, compute_sigma_theta(1.0, margin=0.0).sigma)


class TestSubproblems:
    def test_nondiagonal_quadratic_part_rejected_for_l1(self):
        # l1 x-block with a dense A makes A^T H A non-diagonal: needs a
        # linearizing R to become a soft-threshold step
        rng = np.random.default_rng(0)
        dense = ProblemSpec(
            FunctionDescriptor("l1", 4, lam=0.1),
            FunctionDescriptor("zero", 4),
            rng.normal(size=(4, 4)),
            np.eye(4),
            np.zeros(4),
        )
        sched = constant_schedule(dense.dims, 1)
        with pytest.raises(SubproblemError, match="diagonal"):
            solve_x_subproblem(
                dense, np.zeros(4), dense.B @ np.zeros(4), np.zeros(4),
                BlockSystem(dense.f, dense.A, sched, "R"), 1,
            )

    def test_quadratic_solve_is_optimal(self):
        p = scalar_problem()
        sched = constant_schedule(p.dims, 1, h_scale=2.0, r_scale=1.0)
        x = solve_x_subproblem(
            p, np.zeros(1), p.B @ np.zeros(1), np.zeros(1), BlockSystem(p.f, p.A, sched, "R"), 1
        )
        # argmin 0.5x^2 + (H/2)(x - 1)^2 + (R/2)x^2 with H=2, R=1: x = 0.5
        assert x[0] == pytest.approx(0.5)

    def test_singular_but_consistent_solve_is_still_optimal(self):
        # zero f with rank-one A^T H A: the right-hand side stays in the
        # range, so the least-squares solve returns a true minimizer
        f = FunctionDescriptor("zero", 2)
        g = FunctionDescriptor("zero", 1)
        p = ProblemSpec(f, g, np.array([[1.0, 1.0]]), np.eye(1), np.zeros(1))
        sched = constant_schedule(p.dims, 1)
        x = solve_x_subproblem(
            p, np.zeros(2), p.B @ np.zeros(1), np.ones(1), BlockSystem(p.f, p.A, sched, "R"), 1
        )
        G = p.A.T @ p.A
        q_lin = -p.A.T @ np.ones(1)
        assert np.linalg.norm(G @ x + q_lin) <= 1e-10


class TestFactoredSubproblems:
    """A run's x-solve from its factored system f_k K + tau I + Q against
    ``np.linalg.lstsq`` on the system formed from the realized H_k and R_k;
    the block is decomposed by at most two ``eigh`` over all factors."""

    DRIFT = {"c0": 0.5, "law": "inverse_square"}

    @staticmethod
    def problem(f, A):
        m, n_x = A.shape
        g = FunctionDescriptor("zero", m)
        return ProblemSpec(f, g, A, np.eye(m), np.zeros(m))

    def check_run_solves(self, p, sched_cfg, monkeypatch, steps=6):
        sched = schedule_from_dict(dict(sched_cfg, k_max=steps), p.dims, A=p.A)
        x_system = BlockSystem(p.f, p.A, sched, "R")
        rng = np.random.default_rng(4)
        eighs = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: eighs.append(1) or eigh(*a, **k))
        factors = set()
        for k in range(1, steps + 1):
            H_k, R_k, _ = sched.realize(k)
            f = sched.factor(k)
            factors.add(f)
            x_prev, y_prev, gamma = (rng.normal(size=d) for d in p.dims)
            x = solve_x_subproblem(p, x_prev, p.B @ y_prev, gamma, x_system, k)
            G = p.A.T @ H_k.matrix @ p.A + R_k.matrix
            q_lin = -p.A.T @ gamma + p.A.T @ (H_k.matrix @ (p.B @ y_prev - p.b)) - R_k.matrix @ x_prev
            total, rhs = G, -q_lin
            if p.f.kind == "quadratic":
                total, rhs = G + p.f.Q, -(q_lin + p.f.q)
            ref = np.linalg.lstsq(total, rhs, rcond=None)[0]
            assert np.linalg.norm(total @ x - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))
            np.testing.assert_allclose(x, ref, rtol=1e-8, atol=1e-8 * np.linalg.norm(ref))
        assert len(eighs) <= 2
        return factors

    @staticmethod
    def dummy_reference(p):
        from vmpadmm.problems import ReferenceSolution

        n_x, n_y, m = p.dims
        return ReferenceSolution(np.zeros(n_x), np.zeros(n_y), np.zeros(m), 0.0)

    def test_drifting_factor(self, monkeypatch):
        rng = np.random.default_rng(1)
        L = rng.normal(size=(5, 5))
        f = FunctionDescriptor("quadratic", 5, Q=L @ L.T + np.eye(5), q=rng.normal(size=5))
        cfg = {"H": {"type": "scaled_identity", "scale": 1.5},
               "R": {"type": "scaled_identity", "scale": 0.5}, "S": {"type": "zero"}, "c": self.DRIFT}
        assert len(self.check_run_solves(self.problem(f, rng.normal(size=(3, 5))), cfg, monkeypatch)) > 1

    def test_zero_f_singular_but_consistent(self, monkeypatch):
        # n_x > m and R = 0: f K = f A^T H_0 A has rank m; the basis of its
        # range, whitened once, gives lstsq's minimum-norm solution at every f
        rng = np.random.default_rng(2)
        cfg = {"H": {"type": "scaled_identity", "scale": 1.0}, "R": {"type": "zero"},
               "S": {"type": "zero"}, "c": self.DRIFT}
        p = self.problem(FunctionDescriptor("zero", 6), rng.normal(size=(3, 6)))
        self.check_run_solves(p, cfg, monkeypatch)

    def test_linearized_r(self, monkeypatch):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 6))
        tau = 1.2 * float(np.linalg.eigvalsh(A.T @ A).max())
        f = FunctionDescriptor("quadratic", 6, Q=np.eye(6), q=rng.normal(size=6))
        cfg = {"H": {"type": "scaled_identity", "scale": 1.0}, "R": {"type": "linearized", "tau": tau},
               "S": {"type": "zero"}}
        p = self.problem(f, A)
        self.check_run_solves(p, cfg, monkeypatch)
        # the x-system is tau I + Q exactly: no K is formed
        sched = schedule_from_dict(dict(cfg, k_max=2), p.dims, A=A)
        assert BlockSystem(p.f, p.A, sched, "R").K is None

    @pytest.mark.parametrize("n_x", [3, 5])
    def test_psd_singular_q(self, n_x, monkeypatch):
        # C = Q is singular, so the basis whitens K + Q, not C; one basis
        # serves every factor (q = 0 keeps the system consistent)
        rng = np.random.default_rng(5)
        Q = np.diag([1.0, 2.0] + [0.0] * (n_x - 2))
        f = FunctionDescriptor("quadratic", n_x, Q=Q, q=np.zeros(n_x))
        cfg = {"H": {"type": "scaled_identity", "scale": 1.0}, "R": {"type": "zero"},
               "S": {"type": "zero"}, "c": self.DRIFT}
        self.check_run_solves(self.problem(f, rng.normal(size=(4, n_x))), cfg, monkeypatch)

    def test_ill_conditioned_c(self, monkeypatch):
        # cond(C) = cond(Q) = 1e8: whitening by K + Q needs no cap on C's conditioning
        rng = np.random.default_rng(6)
        U = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        Q = (U * np.logspace(0, -8, 6)) @ U.T
        f = FunctionDescriptor("quadratic", 6, Q=0.5 * (Q + Q.T), q=rng.normal(size=6))
        cfg = {"H": {"type": "scaled_identity", "scale": 1.0}, "R": {"type": "zero"},
               "S": {"type": "zero"}, "c": self.DRIFT}
        assert len(self.check_run_solves(self.problem(f, rng.normal(size=(4, 6))), cfg, monkeypatch)) > 1

    def test_inconsistent_system_raises(self):
        # f K + Q with K = A^T A = e1 e1^T and Q = e2 e2^T misses e3, where q lives
        f = FunctionDescriptor("quadratic", 3, Q=np.diag([0.0, 1.0, 0.0]), q=np.array([0.0, 0.0, 1.0]))
        p = self.problem(f, np.array([[1.0, 0.0, 0.0]]))
        sched = constant_schedule(p.dims, 1)
        args = (p, np.zeros(3), p.B @ np.zeros(1), np.zeros(1), BlockSystem(p.f, p.A, sched, "R"), 1)
        with pytest.raises(SubproblemError, match="singular"):
            solve_x_subproblem(*args)
        cfg = {"H": {"type": "scaled_identity", "scale": 1.0}, "R": {"type": "zero"},
               "S": {"type": "zero"}, "c": self.DRIFT}
        run = VmPadmmRun(p, schedule_from_dict(dict(cfg, k_max=3), p.dims), compute_sigma_theta(1.0),
                         reference=self.dummy_reference(p))
        with pytest.raises(SubproblemError, match="singular"):
            run.step()


class TestMultiplierUpdate:
    def test_hand_example(self):
        # 1-dim, H=2, theta=0.5, primal residual 3: gamma drops by 0.5*2*3
        p = scalar_problem()
        x, y, y_prev = np.array([2.0]), np.array([2.0]), np.array([1.0])
        gamma, gamma_t = update_multiplier(
            np.zeros(1), identity(1, 2.0), 0.5, p.A @ x + p.B @ y - p.b, p.A @ x + p.B @ y_prev - p.b
        )
        assert gamma[0] == pytest.approx(-3.0)
        # extragradient multiplier uses y_prev and full stepsize: -(2*(2+1-1))
        assert gamma_t[0] == pytest.approx(-4.0)

    def test_gamma_tilde_identity(self):
        # gamma~ - gamma = ((1-theta)/theta)(gamma - gamma_prev) + H B (y - y_prev)
        p = generate("consensus_ls", (4, 3, 2), 5)
        rng = np.random.default_rng(0)
        H = identity(2, 1.7)
        theta = 1.3
        gp, x, y, ypr = rng.normal(size=2), rng.normal(size=4), rng.normal(size=3), rng.normal(size=3)
        gamma, gamma_t = update_multiplier(gp, H, theta, p.A @ x + p.B @ y - p.b, p.A @ x + p.B @ ypr - p.b)
        expected = gamma + (1.0 - theta) / theta * (gamma - gp) + H.matrix @ (p.B @ (y - ypr))
        np.testing.assert_allclose(gamma_t, expected, atol=1e-12)


class TestFixedPoint:
    def test_stationary_at_reference_solution(self):
        p = generate("consensus_ls", (5, 4, 3), 8)
        ref = reference_solve(p)
        sched = constant_schedule(p.dims, 10, h_scale=1.0, r_scale=0.5, s_scale=0.5)
        params = compute_sigma_theta(1.0)
        run = VmPadmmRun(p, sched, params, x0=ref.x, y0=ref.y, gamma0=ref.gamma, reference=ref)
        it = next(run.certified_steps(1, rho=0.0, eps=0.0)).iterate
        assert it.dual_max <= 1e-8
        np.testing.assert_allclose(it.x, ref.x, atol=1e-8)
        np.testing.assert_allclose(it.gamma, ref.gamma, atol=1e-8)


class TestStandardAdmmReduction:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_matches_textbook_admm(self, beta):
        from vmpadmm.problems import plain_admm_iterates

        p = generate("lasso", (8, 4), 3)
        sched = constant_schedule(p.dims, 110, h_scale=beta)
        params = compute_sigma_theta(1.0)
        run = VmPadmmRun(p, sched, params)
        for x_ref, y_ref, g_ref in islice(plain_admm_iterates(p, beta=beta), 100):
            it = run.step()
            np.testing.assert_allclose(it.x, x_ref, atol=1e-10)
            np.testing.assert_allclose(it.y, y_ref, atol=1e-10)
            np.testing.assert_allclose(it.gamma, g_ref, atol=1e-10)


class TestRunInternals:
    """Certificates are read while stepping and checked at every k against
    O(k) recomputations from the iterates recorded here."""

    def setup_method(self):
        self.p = generate("lasso", (10, 5), 7)
        self.sched = constant_schedule(self.p.dims, 60, h_scale=1.0)
        self.params = compute_sigma_theta(1.0)
        self.run = VmPadmmRun(self.p, self.sched, self.params)
        self.steps, self.iterates, self.pointwise, self.ergodic = [], [], [], []
        self.eps_full, self.hpe_eps_direct = [], []
        z_tildes, residuals = [], []
        for k, step in enumerate(self.run.certified_steps(50, rho=0.0, eps=0.0), start=1):
            it = step.iterate
            self.steps.append(step)
            self.iterates.append(it)
            self.pointwise.append(step.pointwise)
            self.ergodic.append(step.ergodic)
            self.eps_full.append(step.ergodic.eps)
            z_tildes.append(np.concatenate([it.x, it.y, it.gamma_tilde]))
            residuals.append(np.concatenate([it.r_x, it.r_y, it.r_gamma]))
            zt_a = sum(z_tildes) / k
            self.hpe_eps_direct.append(sum(float(r @ (zt - zt_a)) for r, zt in zip(residuals, z_tildes)) / k)

    def test_eta_formula_recomputed(self):
        p = self.params
        for it in self.iterates[:10]:
            gam = it.M.blocks[2]
            S_k = self.sched.realize(it.k)[2]
            expected = (
                (p.sigma - (p.theta - 1.0) ** 2) / p.theta**2 * gam.seminorm(it.dgamma) ** 2
                + np.sqrt(2.0) * (p.sigma + p.theta - 1.0) / p.theta * S_k.seminorm(it.dy) ** 2
            )
            assert it.eta == pytest.approx(expected, rel=1e-12)

    def test_gamma_residual_equals_primal_residual(self):
        for it in self.iterates:
            primal = self.p.A @ it.x + self.p.B @ it.y - self.p.b
            np.testing.assert_allclose(it.r_gamma, primal, atol=1e-12)

    def test_metric_seminorm_decomposes_over_blocks(self):
        for it in self.iterates[:5]:
            z = np.concatenate([it.dx, it.dy, it.dgamma])
            total = it.M.seminorm(z) ** 2
            parts = it.dual_x**2 + it.dual_y**2 + it.dual_gamma**2
            assert total == pytest.approx(parts, rel=1e-10, abs=1e-14)

    def test_hpe_condition_holds_throughout(self):
        assert all(step.hpe_check.ok for step in self.steps)

    def test_pointwise_certificate_monotone_best(self):
        best = [self.pointwise[k - 1].dual_max for k in (1, 10, 30, 50)]
        assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))
        for k, cert in enumerate(self.pointwise, start=1):
            duals = [it.dual_max for it in self.iterates[:k]]
            assert cert.index == int(np.argmin(duals)) + 1
            assert cert.dual_max == min(duals)
        cert = self.pointwise[-1]
        assert cert.dual_max <= cert.bound_residual
        assert list(cert.memberships) == ["membership_x", "membership_y"]
        assert all(c.ok for c in cert.memberships.values())
        assert cert.memberships == self.steps[cert.index - 1].memberships

    def test_ergodic_eps_decomposition(self):
        for k in range(1, 51):
            cert, eps_full = self.ergodic[k - 1], self.eps_full[k - 1]
            assert eps_full == pytest.approx(cert.eps_x + cert.eps_y, abs=1e-9 * (1 + abs(eps_full)))
            assert cert.checks["eps_decomposition"].ok
            assert eps_full == pytest.approx(self.hpe_eps_direct[k - 1], abs=1e-12)

    def test_ergodic_accumulators_match_recomputation(self):
        A, B = self.p.A, self.p.B
        for k in range(1, 51):
            its = self.iterates[:k]
            cert = self.ergodic[k - 1]
            x_a, y_a, gt_a = cert.x, cert.y, cert.gamma_tilde
            rx_a, ry_a, rg_a = cert.r_x, cert.r_y, cert.r_gamma
            np.testing.assert_allclose(x_a, sum(i.x for i in its) / k, atol=1e-12)
            np.testing.assert_allclose(y_a, sum(i.y for i in its) / k, atol=1e-12)
            np.testing.assert_allclose(gt_a, sum(i.gamma_tilde for i in its) / k, atol=1e-12)
            np.testing.assert_allclose(rx_a, sum(i.r_x for i in its) / k, atol=1e-12)
            np.testing.assert_allclose(ry_a, sum(i.r_y for i in its) / k, atol=1e-12)
            np.testing.assert_allclose(rg_a, sum(i.r_gamma for i in its) / k, atol=1e-12)
            dsx = sum(float((i.r_x + A.T @ i.gamma_tilde) @ i.x) for i in its) / k
            dsy = sum(float((i.r_y + B.T @ i.gamma_tilde) @ i.y) for i in its) / k
            assert cert.eps_x == pytest.approx(dsx - float((rx_a + A.T @ gt_a) @ x_a), abs=1e-12)
            assert cert.eps_y == pytest.approx(dsy - float((ry_a + B.T @ gt_a) @ y_a), abs=1e-12)

    def test_membership_certificates_sampled(self):
        # the exact eps-memberships hold at every k, and at k = 50 a sampled
        # check of the same inequality finds no violation either
        for cert in self.ergodic:
            assert list(cert.memberships) == ["eps_subdiff_x", "eps_domain_x", "eps_subdiff_y", "eps_domain_y"]
            assert all(c.ok for c in cert.memberships.values()), cert.memberships
        cert = self.run.ergodic_kkt_certificate()
        assert cert.k == 50
        assert all(c.ok for c in (*cert.checks.values(), *cert.memberships.values()))
        rng = np.random.default_rng(0)
        s_x = cert.r_x + self.p.A.T @ cert.gamma_tilde
        s_y = cert.r_y + self.p.B.T @ cert.gamma_tilde
        assert sampled_eps_check(self.p.f, s_x, cert.x, cert.eps_x, rng)
        assert sampled_eps_check(self.p.g, s_y, cert.y, cert.eps_y, rng)

    def test_run_stopping(self):
        run = VmPadmmRun(self.p, constant_schedule(self.p.dims, 400, h_scale=1.0), self.params)
        steps = list(run.certified_steps(400, rho=1e-3, eps=1e-3))
        last = steps[-1]
        first_pw, first_erg = last.first_k_pointwise, last.first_k_ergodic
        assert first_pw is not None and first_pw <= 400
        assert first_erg is None or first_erg >= first_pw or first_erg > 0
        # the rules as stated, recomputed from the yielded certificates
        assert first_pw == next(s.iterate.k for s in steps if s.pointwise.dual_max <= 1e-3)
        erg_ok = [s.iterate.k for s in steps
                  if s.ergodic.dual_max <= 1e-3 and s.ergodic.eps_x + s.ergodic.eps_y <= 1e-3]
        assert first_erg == (erg_ok[0] if erg_ok else None)
        # the loop stops right after both rules have held, or at max_iters
        assert last.iterate.k == (max(first_pw, first_erg) if first_erg else 400)

    def test_schedule_horizon_guard(self):
        run = VmPadmmRun(self.p, constant_schedule(self.p.dims, 2, h_scale=1.0), self.params)
        run.step(), run.step()
        with pytest.raises(ValueError, match="k_max"):
            run.step()

    def test_certified_steps_stop_at_horizon(self):
        # max_iters beyond k_max: the loop ends at the horizon instead of raising
        run = VmPadmmRun(self.p, constant_schedule(self.p.dims, 5, h_scale=1.0), self.params)
        assert [s.iterate.k for s in run.certified_steps(50, rho=0.0, eps=0.0)] == [1, 2, 3, 4, 5]
        assert list(run.certified_steps(50, rho=0.0, eps=0.0)) == []
        run = VmPadmmRun(self.p, constant_schedule(self.p.dims, 5, h_scale=1.0), self.params)
        assert len(list(run.certified_steps(2, rho=0.0, eps=0.0))) == 2
        assert [s.iterate.k for s in run.certified_steps(50, rho=0.0, eps=0.0)] == [3, 4, 5]

    def test_certificates_need_an_iterate(self):
        run = VmPadmmRun(self.p, self.sched, self.params)
        with pytest.raises(ValueError, match="no iterate"):
            run.pointwise_kkt_certificate()


class TestRunState:
    """The HPE state is the run's one full-space state, on a drifting
    schedule (C_P > 1) with nonzero R and S."""

    DRIFT = {
        "H": {"type": "scaled_identity", "scale": 1.0},
        "R": {"type": "scaled_identity", "scale": 0.5},
        "S": {"type": "scaled_identity", "scale": 0.3},
        "c": {"c0": 0.5, "law": "inverse_square"},
        "k_max": 30,
    }

    def setup_method(self):
        self.p = generate("lasso", (10, 5), 7)
        self.sched = schedule_from_dict(self.DRIFT, self.p.dims)
        self.params = compute_sigma_theta(1.0)
        x0 = np.random.default_rng(3).normal(size=self.p.dims[0])
        self.run = VmPadmmRun(self.p, self.sched, self.params, x0=x0)

    def test_fejer_rhs_is_initial_metric_distance(self):
        assert self.sched.C_P > 1.0
        ref = self.run.reference
        z_star = np.concatenate([ref.x, ref.y, ref.gamma])
        H0, R0, S0 = self.sched.realize(0)
        M0 = assemble_Mk(H0, R0, S0, self.p.B, self.params.theta)
        dist_sq = M0.seminorm(z_star - self.run.hpe.z0) ** 2
        expected = self.sched.C_P * (dist_sq + self.run.eta0)
        ks = []
        for step in self.run.certified_steps(20, rho=0.0, eps=0.0):
            ks.append(step.fejer.k)
            assert step.fejer.rhs == expected
            assert step.fejer.ok and step.ok
        assert ks == list(range(1, 21))  # a Fejer check at every k

    def test_seminorm_calls_per_iteration(self, monkeypatch):
        monkeypatch.setattr("vmpadmm.admm._BLOCK", 16)
        blocks = self.run.certified_blocks(30, rho=0.0, eps=0.0)
        next(blocks)
        calls = []
        seminorm = PsdOperator.seminorm

        def counting(op, z):
            calls.append(op)
            return seminorm(op, z)

        monkeypatch.setattr(PsdOperator, "seminorm", counting)
        blk = next(blocks)  # the second block's steps, certificates and Fejer checks
        # once for the whole block: eta's ||y_{k-1} - y_k||_{S_k}, the gamma
        # block of ||z_k - z~_k||_{M_k} (its x and y blocks are zero), and the
        # three blocks of ||z_{k-1} - z~_k||_{M_k} and of ||z* - z_k||_{M_k};
        # the dual seminorms reuse the formed residuals
        assert len(blk) == 14
        assert len(calls) <= 8

    def test_metrics_built_per_pass(self, monkeypatch):
        # a step builds no M_k of its own: a pass builds its rows' stacked M_k,
        # and its commit the M_k of the iteration it keeps
        monkeypatch.setattr("vmpadmm.admm._BLOCK", 16)
        calls = []
        post_init = BlockDiagOperator.__post_init__
        monkeypatch.setattr(BlockDiagOperator, "__post_init__", lambda op: calls.append(op) or post_init(op))
        blocks = list(self.run.certified_blocks(30, rho=0.0, eps=0.0))
        assert [len(blk) for blk in blocks] == [16, 14]
        assert len(calls) <= 2 * len(blocks)

    def test_duals_from_formed_residuals(self):
        # ||d||_Q = sqrt(<d, r>) from the residual r = Q d the step forms, bit
        # for bit the seminorm, on drifting (scaled) metrics
        for step in self.run.certified_steps(10, rho=0.0, eps=0.0):
            it = step.iterate
            R_k, mid_k, gam_k = it.M.blocks
            assert it.M is not self.run.M0
            assert it.dual_x == R_k.seminorm(it.dx)
            assert it.dual_y == mid_k.seminorm(it.dy)
            assert it.dual_gamma == gam_k.seminorm(it.dgamma)

    @pytest.mark.parametrize("group,path", [
        ("hpe", ("hpe_check",)),
        ("bounds", ("pointwise", "checks", "pointwise_res")),
        ("bounds", ("ergodic", "checks", "eps_decomposition")),
        ("memberships", ("pointwise", "memberships", "membership_y")),
        ("memberships", ("ergodic", "memberships", "eps_domain_x")),
        ("fejer", ("fejer",)),
    ])
    def test_one_failing_check_fails_the_step(self, group, path):
        steps = list(self.run.certified_steps(5, rho=0.0, eps=0.0))
        assert all(s.ok for s in steps)
        step = steps[-1]
        assert list(step.checks) == ["hpe", "bounds", "memberships", "fejer"]
        bad = BoundCheck("broken", step.iterate.k, 1.0, 0.0, tol_rel=0.0)
        broken = replaced(step, path, bad)
        assert bad in broken.checks[group]
        assert not broken.ok
        assert step.ok  # the original step is untouched


class TestBlockStop:
    """The stopping rules can hold inside a block: the run then stands after
    that k, as if it had been certified one iteration at a time."""

    @staticmethod
    def two_calls(p, sched):
        run = VmPadmmRun(p, sched, compute_sigma_theta(1.0))
        first = list(run.certified_steps(40, rho=0.1, eps=0.1))
        k = run.k
        return first, k, list(run.certified_steps(5, rho=0.0, eps=0.0))

    @pytest.mark.parametrize("block", [admm._BLOCK, 2], ids=["one_pass", "passes_of_two"])
    def test_stop_inside_a_block(self, block, monkeypatch):
        # k = 22 lies inside the first default block, and ends a block of two
        monkeypatch.setattr("vmpadmm.admm._BLOCK", block)
        p = generate("lasso", (10, 5), 3)
        sched = constant_schedule(p.dims, 40, h_scale=1.0)
        first, k, more = self.two_calls(p, sched)
        assert k == 22 and [s.iterate.k for s in first] == list(range(1, 23))
        stop = (first[-1].first_k_pointwise, first[-1].first_k_ergodic)
        assert max(stop) == 22
        assert [s.iterate.k for s in more] == [23, 24, 25, 26, 27]
        monkeypatch.setattr("vmpadmm.admm._BLOCK", 1)
        one_first, one_k, one_more = self.two_calls(p, sched)
        assert one_k == 22 and len(one_first) == 22
        assert (one_first[-1].first_k_pointwise, one_first[-1].first_k_ergodic) == stop
        for got, want in zip(more, one_more):
            for name in ("k", "x", "y", "gamma", "gamma_tilde"):  # the same steps from the same state
                assert np.array_equal(getattr(got.iterate, name), getattr(want.iterate, name)), name
            assert got.first_k_pointwise == want.first_k_pointwise
            assert got.first_k_ergodic == want.first_k_ergodic
            for group, checks in got.checks.items():
                assert [c.ok for c in checks] == [c.ok for c in want.checks[group]]
                np.testing.assert_allclose([c.slack for c in checks], [c.slack for c in want.checks[group]],
                                           rtol=1e-9, atol=1e-12)
            for cert, want_cert in ((got.pointwise, want.pointwise), (got.ergodic, want.ergodic)):
                assert cert.index == want_cert.index
                np.testing.assert_allclose(
                    [cert.dual_max, cert.eps_x, cert.eps_y], [want_cert.dual_max, want_cert.eps_x, want_cert.eps_y],
                    rtol=1e-9, atol=1e-12,
                )
            assert got.iterate.eta == pytest.approx(want.iterate.eta, rel=1e-9, abs=1e-12)


    @staticmethod
    def assert_same_certificate(got, want):
        assert (got.mode, got.k, got.index) == (want.mode, want.k, want.index)
        for group in ("checks", "memberships"):
            got_checks, want_checks = getattr(got, group).values(), getattr(want, group).values()
            assert [c.name for c in got_checks] == [c.name for c in want_checks]
            assert [c.ok for c in got_checks] == [c.ok for c in want_checks]
            np.testing.assert_allclose([c.slack for c in got_checks], [c.slack for c in want_checks],
                                       rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose([got.dual_max, got.eps_x, got.eps_y], [want.dual_max, want.eps_x, want.eps_y],
                                   rtol=1e-9, atol=1e-12)

    def test_certificates_read_after_the_stop(self, monkeypatch):
        # read after a stop inside a block, the run's certificates are the last
        # yielded step's; to roundoff only, because the pass forms them from
        # stacked products and the re-read from 1-D ones
        p = generate("lasso", (10, 5), 3)
        sched = constant_schedule(p.dims, 40, h_scale=1.0)

        def stop_and_read():
            run = VmPadmmRun(p, sched, compute_sigma_theta(1.0))
            last = list(run.certified_steps(40, rho=0.1, eps=0.1))[-1]
            assert run.k == last.iterate.k == 22
            return (last.pointwise, last.ergodic), (run.pointwise_kkt_certificate(), run.ergodic_kkt_certificate())

        yielded, read = stop_and_read()
        monkeypatch.setattr("vmpadmm.admm._BLOCK", 1)
        one_yielded, one_read = stop_and_read()
        for got, want, one, one_want in zip(read, yielded, one_read, one_yielded):
            self.assert_same_certificate(got, want)
            self.assert_same_certificate(one, one_want)
            self.assert_same_certificate(got, one)

    def test_failing_step_after_the_certified_ones(self):
        # cond(H) = 1e5: the gamma residual identity fails at k = 3, inside the
        # first block; the iterations before it are certified and yielded first
        U = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)
        cfg = {"H": {"type": "dense", "matrix": ((U * np.logspace(0, 5, 4)) @ U.T).tolist()},
               "R": {"type": "zero"}, "S": {"type": "zero"}, "k_max": 50}
        p = generate("consensus_ls", (6, 5, 4), 1)
        run = VmPadmmRun(p, schedule_from_dict(cfg, p.dims), compute_sigma_theta(1.0))
        certified = []
        with pytest.raises(FloatingPointError, match="at k = 3"):
            for step in run.certified_steps(50, rho=0.0, eps=0.0):
                certified.append(step.iterate.k)
        assert certified == [1, 2] and run.k == 2


class TestFactorOnce:
    """After the first step, a certified iteration runs no eigh, eigvalsh or
    lstsq: the metrics are views of the anchor operators and the subproblem
    systems are decomposed once."""

    LAPACK = ("eigh", "eigvalsh", "lstsq")

    def count_decompositions(self, cfg, monkeypatch, p=None):
        # blocks of two: the iterations after the first block are stepped and
        # certified while the decompositions are counted
        monkeypatch.setattr("vmpadmm.admm._BLOCK", 2)
        p = p or generate("lasso", (10, 5), 7)
        sched = schedule_from_dict(cfg, p.dims, A=p.A)
        run = VmPadmmRun(p, sched, compute_sigma_theta(1.0))
        steps = run.certified_steps(6, rho=0.0, eps=0.0)
        assert next(steps).ok
        calls = []
        for name in self.LAPACK:
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, _n=name, _fn=fn, **k: calls.append(_n) or _fn(*a, **k)
            )
        for step in steps:
            assert step.ok
        assert run.k == 6
        return calls

    def test_zero_law_linearized(self, monkeypatch):
        A = generate("lasso", (10, 5), 7).A
        cfg = {"H": {"type": "scaled_identity", "scale": 1.0},
               "R": {"type": "linearized", "tau": 1.1 * float(np.linalg.eigvalsh(A.T @ A).max())},
               "S": {"type": "zero"}, "k_max": 10}
        assert self.count_decompositions(cfg, monkeypatch) == []

    def test_inverse_square_drift(self, monkeypatch):
        assert self.count_decompositions(TestRunState.DRIFT, monkeypatch) == []

    def test_inverse_square_linearized(self, monkeypatch):
        # each R_k = tau I - f_k A^T H_0 A is a view of one decomposed anchor
        A = generate("lasso", (10, 5), 7).A
        tau = 3.0 * float(np.linalg.eigvalsh(A.T @ A).max())
        cfg = dict(TestRunState.DRIFT, R={"type": "linearized", "tau": tau})
        assert self.count_decompositions(cfg, monkeypatch) == []

    @pytest.mark.parametrize("f,m", [
        (FunctionDescriptor("zero", 6), 3),  # n_x > m: every T_k = f_k A^T H_0 A has rank 3
        (FunctionDescriptor("quadratic", 5, Q=np.diag([1.0, 2.0, 0.0, 0.0, 0.0]), q=np.zeros(5)), 2),
    ], ids=["zero_f", "psd_singular_q"])
    def test_inverse_square_singular_c(self, f, m, monkeypatch):
        # R = 0 leaves the x-block's C = Q (or 0) singular; g = 0.5||y||^2 + q^T y, B = I
        rng = np.random.default_rng(8)
        g = FunctionDescriptor("quadratic", m, Q=np.eye(m), q=rng.normal(size=m))
        p = ProblemSpec(f, g, rng.normal(size=(m, f.dim)), np.eye(m), rng.normal(size=m))
        cfg = {"H": {"type": "scaled_identity", "scale": 1.0}, "R": {"type": "zero"},
               "S": {"type": "zero"}, "c": {"c0": 0.5, "law": "inverse_square"}, "k_max": 10}
        assert self.count_decompositions(cfg, monkeypatch, p) == []


class TestRunMetric:
    """The run assembles M_0 once and derives M_k from it and f_k;
    ``assemble_Mk`` on the realized operators is the oracle."""

    R_DESCS = {
        "scaled": lambda AHA: {"type": "scaled_identity", "scale": 0.7},
        # tau = 3 lambda_max(A^T H_0 A) keeps every R_k PSD and sandwiched for c_0 = 0.5
        "linearized": lambda AHA: {"type": "linearized", "tau": 3.0 * float(np.linalg.eigvalsh(AHA).max())},
    }

    @staticmethod
    def case(r_desc, law="inverse_square", seed=0):
        """A quadratic problem with dense A, B, H and S, and its schedule."""
        rng = np.random.default_rng(seed)
        n_x, n_y, m = 5, 4, 3
        L, G = rng.normal(size=(m, m)), rng.normal(size=(n_y, n_y - 1))
        A, B = rng.normal(size=(m, n_x)), rng.normal(size=(m, n_y))
        H = L @ L.T + np.eye(m)
        cfg = {
            "H": {"type": "dense", "matrix": H.tolist()},
            "R": r_desc(A.T @ H @ A),
            "S": {"type": "dense", "matrix": (G @ G.T).tolist()},
            "c": {"c0": 0.5 if law == "inverse_square" else 0.0, "law": law},
            "k_max": 6,
        }
        f = FunctionDescriptor("quadratic", n_x, Q=np.eye(n_x), q=rng.normal(size=n_x))
        g = FunctionDescriptor("quadratic", n_y, Q=np.eye(n_y), q=rng.normal(size=n_y))
        p = ProblemSpec(f, g, A, B, rng.normal(size=m))
        return p, schedule_from_dict(cfg, p.dims, A=A)

    @pytest.mark.parametrize("r_kind", sorted(R_DESCS))
    def test_matches_assembled(self, r_kind, monkeypatch):
        p, sched = self.case(self.R_DESCS[r_kind])
        calls = []
        monkeypatch.setattr("vmpadmm.admm.assemble_Mk", lambda *a: calls.append(a) or assemble_Mk(*a))
        run = VmPadmmRun(p, sched, compute_sigma_theta(1.3))
        metrics = [run.M0]
        assert run.M0.blocks[0] is sched.realize(0)[1]
        for step in run.certified_steps(sched.k_max, rho=0.0, eps=0.0):
            assert step.ok
            metrics.append(step.iterate.M)
            # R_k of the certified record is R_k as the schedule realizes it
            np.testing.assert_array_equal(step.iterate.M.blocks[0].matrix, sched.realize(step.iterate.k)[1].matrix)
        assert run.k == sched.k_max and len({sched.factor(k) for k in range(7)}) == 7  # f_k moves at every k
        for k, M in enumerate(metrics):
            ref = assemble_Mk(*sched.realize(k), p.B, 1.3)
            for got, want in zip(M.blocks, ref.blocks):
                np.testing.assert_allclose(got.matrix, want.matrix, rtol=1e-12, atol=1e-14)
        assert len(calls) == 1  # M_0, once per run
        VmPadmmRun(p, sched, compute_sigma_theta(0.9))  # another run assembles its own M_0
        assert len(calls) == 2

    def test_zero_law_uses_M0(self):
        p, sched = self.case(self.R_DESCS["linearized"], law="zero")
        run = VmPadmmRun(p, sched, compute_sigma_theta(1.3))
        for step in run.certified_steps(sched.k_max, rho=0.0, eps=0.0):
            for got, want in zip(step.iterate.M.blocks, run.M0.blocks, strict=True):
                np.testing.assert_array_equal(got.matrix, want.matrix)
        assert run.k == sched.k_max


class TestRunValidatesSchedule:
    """A run certifies only a schedule that passes ``validate()``: it raises
    ``ScheduleError`` before the reference solve otherwise."""

    @staticmethod
    def schedule(p, R, c0):
        cfg = {"H": {"type": "scaled_identity", "scale": 1.0}, "R": R, "S": {"type": "zero"},
               "c": {"c0": c0, "law": "inverse_square"}, "k_max": 200}
        return schedule_from_dict(cfg, p.dims, A=p.A)

    def test_failing_schedule_rejected(self, monkeypatch):
        # tau = 2 lambda_max(A^T A) keeps every R_k PSD but breaks the sandwich at every k
        p = generate("lasso", (10, 5), 1)
        tau = 2.0 * float(np.linalg.eigvalsh(p.A.T @ p.A)[-1])
        sched = self.schedule(p, {"type": "linearized", "tau": tau}, 0.5)
        failed = r"schedule validation failed at \(k, family\) = \[\(0, 'R'\), \(1, 'R'\), \(2, 'R'\)\]$"
        with pytest.raises(ScheduleError, match=failed):
            sched.validate()

        def no_reference(problem):
            raise AssertionError("reference solve before validation")

        monkeypatch.setattr("vmpadmm.admm.reference_solve", no_reference)
        with pytest.raises(ScheduleError, match=failed):
            VmPadmmRun(p, sched, compute_sigma_theta(1.0))

    def test_c_over_one_and_indefinite_rejected(self):
        p = generate("lasso", (10, 5), 1)
        with pytest.raises(ScheduleError, match=r"= \[\(0, 'c'\)\]$"):  # c_0 = 4 > 1, c_1 = 1
            VmPadmmRun(p, self.schedule(p, {"type": "zero"}, 4.0), compute_sigma_theta(1.0))
        # R_0 = tau I - A^T A is PSD, but H_1 = 1.5 H_0 makes R_1 indefinite
        tau = 1.1 * float(np.linalg.eigvalsh(p.A.T @ p.A)[-1])
        not_psd = "^schedule validation failed: R_k is not PSD, first at k = 1$"
        with pytest.raises(ScheduleError, match=not_psd):
            VmPadmmRun(p, self.schedule(p, {"type": "linearized", "tau": tau}, 0.5), compute_sigma_theta(1.0))


class TestD0:
    def test_zero_at_solution(self):
        p = generate("consensus_ls", (4, 3, 2), 1)
        ref = reference_solve(p)
        M0 = assemble_Mk(identity(2), zero_operator(4), zero_operator(3), p.B, 1.0)
        d0 = compute_d0_admm(p, (ref.x, ref.y, ref.gamma), M0, x0=ref.x, y0=ref.y, gamma0=ref.gamma)
        assert d0 == pytest.approx(0.0, abs=1e-12)

    def test_scalar_value(self):
        p = scalar_problem()
        # R=0, S=0, H=1, B=1, theta=1: d0^2 = (y0-y*)^2 * 1 + (g0-g*)^2
        M0 = assemble_Mk(identity(1), zero_operator(1), zero_operator(1), p.B, 1.0)
        d0 = compute_d0_admm(p, (np.array([0.5]), np.array([0.5]), np.array([0.5])), M0)
        assert d0 == pytest.approx(np.sqrt(0.25 + 0.25))

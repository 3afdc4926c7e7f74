import dataclasses
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    applied,
    break_second_stacked_call,
    dense_realized,
    force_block_rows,
    identity,
    realized_step,
    sampled_eps_check,
    sigma_feasible_scalar,
    zero_operator,
)
from test_acceptance import INSTANCES, make_schedule

from vmpadmm import admm
from vmpadmm.admm import (
    _THETA_EXCLUSION,
    AdmmStep,
    BlockSystem,
    KktResidualCertificate,
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
from vmpadmm.hpe import BoundCheck, row_of
from vmpadmm.linalg import BlockDiagOperator, PsdOperator, _RowViews
from vmpadmm.problems import FunctionDescriptor, ProblemSpec, generate, reference_solve
from vmpadmm.schedule import (
    THETA_MAX,
    ScheduleError,
    assemble_Mk,
    constant_schedule,
    schedule_from_dict,
)


def one_row_blocks(blocks):
    """Each iteration of the certified ``blocks`` as the block of its row."""
    return [row_of(blk, slice(i, i + 1)) for blk in blocks for i in range(len(blk))]


def block_ks(blocks):
    """The iterations of the certified ``blocks``, read from their k column."""
    return [k for blk in blocks for k in blk.iterate.k.tolist()]


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

    @pytest.mark.parametrize("theta", [1e-5, 1.618])
    def test_admissible_sigma_above_the_grid(self, theta):
        # no point of the 10,000-point grid is admissible, but sigmas in
        # (10000/10001, 1) are: the scan bisects up to the largest float below 1
        grid = np.arange(1, 10_001) / 10_001.0
        assert not sigma_feasible(theta, grid).any() and sigma_feasible(theta, np.nextafter(1.0, 0.0))
        params = compute_sigma_theta(theta, margin=0.0)
        assert grid[-1] < params.sigma < 1.0 and sigma_feasible(theta, params.sigma)
        assert not sigma_feasible(theta, params.sigma - 1e-9)  # minimal, to the bisection's 1e-10
        with pytest.raises(RuntimeError, match=r"^minimal sigma .* plus margin 0.001 leaves \(0, 1\)$"):
            compute_sigma_theta(theta)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(_THETA_EXCLUSION, THETA_MAX - _THETA_EXCLUSION))
    @example(_THETA_EXCLUSION)
    @example(THETA_MAX - _THETA_EXCLUSION)
    def test_largest_float_below_one_is_admissible(self, theta):
        # the scan's fallback when no grid point is admissible: at sigma = 1 the
        # four conditions hold for every theta below the golden ratio, with
        # margins far above the step from 1 to this float
        assert sigma_feasible(theta, np.nextafter(1.0, 0.0))

    def test_tau_formula_example(self):
        # theta=1, sigma=0.501: tau = 8 * 0.501 * max(1, 1) / 1 = 4.008
        assert tau_theta(1.0, 0.501) == pytest.approx(4.008)

    def test_theta_boundaries_excluded(self):
        for theta in (0.0, 1e-13, THETA_MAX, THETA_MAX - 1e-13, 2.0):
            with pytest.raises(ValueError, match="theta"):
                compute_sigma_theta(theta)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="admissibility"):
            ThetaParams(theta=1.0, sigma=0.3)
        # tau is derived from theta and sigma, with the bits of the report's tau_theta
        assert ThetaParams(theta=1.0, sigma=0.6).tau == tau_theta(1.0, 0.6)

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
        with pytest.raises(SubproblemError, match=r"diagonal.* \(use a linearized R\)$"):
            solve_x_subproblem(
                dense, np.zeros(4), dense.B @ np.zeros(4), np.zeros(4),
                BlockSystem(dense.f, dense.A, sched, "R"), 1,
            )

    def test_nondiagonal_quadratic_part_rejected_for_l1_y(self):
        # the y-block has no linearized S: the refusal names the condition on its system
        rng = np.random.default_rng(0)
        dense = ProblemSpec(
            FunctionDescriptor("zero", 4), FunctionDescriptor("l1", 4, lam=0.1), np.eye(4), rng.normal(size=(4, 4)),
            np.zeros(4),
        )
        with pytest.raises(SubproblemError, match=r"diagonal.* \(B\^T H_0 B \+ S_0 must be diagonal\)$"):
            BlockSystem(dense.g, dense.B, constant_schedule(dense.dims, 1), "S")

    def test_quadratic_solve_is_optimal(self):
        p = scalar_problem()
        sched = constant_schedule(p.dims, 1, h_scale=2.0, r_scale=1.0)
        system = BlockSystem(p.f, p.A, sched, "R")
        x, q_lin = solve_x_subproblem(p, np.zeros(1), p.B @ np.zeros(1), np.zeros(1), system, 1)
        # argmin 0.5x^2 + (H/2)(x - 1)^2 + (R/2)x^2 with H=2, R=1: x = 0.5
        assert x[0] == pytest.approx(0.5)
        # v = -(G x + q_lin), as the block's pass forms it, is the gradient of f at the optimal x
        (v,), (miss, tol) = system.residuals(np.array([1]), x[None], q_lin[None])
        assert v[0] == pytest.approx(0.5) and p.f.membership_distance(v, x) <= 1e-12
        assert miss[0] <= tol[0]  # the system test holds

    def test_singular_but_consistent_solve_is_still_optimal(self):
        # zero f with rank-one A^T H A: the right-hand side stays in the
        # range, so the least-squares solve returns a true minimizer
        f = FunctionDescriptor("zero", 2)
        g = FunctionDescriptor("zero", 1)
        p = ProblemSpec(f, g, np.array([[1.0, 1.0]]), np.eye(1), np.zeros(1))
        sched = constant_schedule(p.dims, 1)
        system = BlockSystem(p.f, p.A, sched, "R")
        x, q_lin = solve_x_subproblem(p, np.zeros(2), p.B @ np.zeros(1), np.ones(1), system, 1)
        (v,), (miss, tol) = system.residuals(np.array([1]), x[None], q_lin[None])  # as the block's pass forms them
        assert np.linalg.norm(v) <= 1e-10  # the zero f's only subgradient
        assert miss[0] <= tol[0]  # the system test holds
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
            H_k, R_k, _ = dense_realized(sched, k)
            f = sched.factor(k)
            factors.add(f)
            x_prev, y_prev, gamma = (rng.normal(size=d) for d in p.dims)
            x, _ = solve_x_subproblem(p, x_prev, p.B @ y_prev, gamma, x_system, k)
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
        # cond(C) = cond(Q) = 1e8: outside the gate, so the block whitens
        # T_1 = K + Q, which needs no cap on C's conditioning
        rng = np.random.default_rng(6)
        U = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        Q = (U * np.logspace(0, -8, 6)) @ U.T
        f = FunctionDescriptor("quadratic", 6, Q=0.5 * (Q + Q.T), q=rng.normal(size=6))
        cfg = {"H": {"type": "scaled_identity", "scale": 1.0}, "R": {"type": "zero"},
               "S": {"type": "zero"}, "c": self.DRIFT}
        assert len(self.check_run_solves(self.problem(f, rng.normal(size=(4, 6))), cfg, monkeypatch)) > 1

    def test_inconsistent_system_raises(self, monkeypatch):
        # f K + Q with K = A^T A = e1 e1^T and Q = e2 e2^T misses e3, where q lives
        f = FunctionDescriptor("quadratic", 3, Q=np.diag([0.0, 1.0, 0.0]), q=np.array([0.0, 0.0, 1.0]))
        p = self.problem(f, np.array([[1.0, 0.0, 0.0]]))
        sched = constant_schedule(p.dims, 1)
        system = BlockSystem(p.f, p.A, sched, "R")
        assert system._range.tolist() == [True, True, False]  # T_1 = diag(1, 1, 0): solved by division
        x, q_lin = solve_x_subproblem(p, np.zeros(3), p.B @ np.zeros(1), np.zeros(1), system, 1)
        _, (miss, tol) = system.residuals(np.array([1]), x[None], q_lin[None])
        assert miss[0] > tol[0]  # the solve misses its system; the block's pass raises for it
        cfg = {"H": {"type": "scaled_identity", "scale": 1.0}, "R": {"type": "zero"},
               "S": {"type": "zero"}, "c": self.DRIFT}
        for rows in (32, 1):
            force_block_rows(monkeypatch, rows)
            run = VmPadmmRun(p, schedule_from_dict(dict(cfg, k_max=3), p.dims), compute_sigma_theta(1.0),
                             reference=self.dummy_reference(p))
            with pytest.raises(SubproblemError, match="^x-subproblem quadratic part is singular at k = 1: residual "):
                next(run.certified_blocks(3, rho=0.0, eps=0.0))
            assert run.k == run.hpe.k == 0  # no row certified: the run stands at z_0
            assert not any(v.any() for v in (run.x, run.y, run.gamma, run._By))

    def test_l1_solve_without_curvature_raises(self):
        # B = [[1, 0], [0, 0]] and S = 0: the l1 y-system B^T H_k B is diagonal,
        # with no curvature on y_2 for the closed-form solve to divide by
        f = FunctionDescriptor("quadratic", 2, Q=np.eye(2), q=np.ones(2))
        p = ProblemSpec(f, FunctionDescriptor("l1", 2, lam=0.1), np.eye(2), np.diag([1.0, 0.0]), np.ones(2))
        with pytest.raises(ValueError, match="separable prox step requires a positive diagonal"):
            reference_solve(p)
        # the run refuses the block when it builds the block's system, before the reference solve
        with pytest.raises(SubproblemError, match="^l1 subproblem needs positive diagonal curvature$"):
            VmPadmmRun(p, constant_schedule(p.dims, 3), compute_sigma_theta(1.0))

    @pytest.mark.parametrize("g", [
        FunctionDescriptor("l1", 2, lam=0.1), FunctionDescriptor("box", 2, lower=-np.ones(2), upper=np.ones(2)),
    ], ids=["l1", "box"])
    def test_curvature_refused_when_the_system_is_built(self, g):
        # the same y-system as above: its constructor refuses it, before any solve,
        # since every f_k > 0 gives d_k the sign pattern of d_1
        p = ProblemSpec(FunctionDescriptor("zero", 2), g, np.eye(2), np.diag([1.0, 0.0]), np.ones(2))
        cfg = {"H": {"type": "scaled_identity", "scale": 1.0}, "R": {"type": "zero"},
               "S": {"type": "zero"}, "c": self.DRIFT, "k_max": 3}
        sched = schedule_from_dict(cfg, p.dims)
        with pytest.raises(SubproblemError, match=f"^{g.kind} subproblem needs positive diagonal curvature$"):
            BlockSystem(p.g, p.B, sched, "S")


def whitened_by(system):
    """What a quadratic block's basis whitens, "C" or "T1", told by the eigh
    calls of its factoring once Q's eigendecomposition is cached: whitening
    by C decomposes Z^T K Z alone (nothing when K = 0), whitening by T_1
    decomposes K + Q first."""
    system.desc._Q_operator._eig
    calls, eigh = [], np.linalg.eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        system._factor()
    return "T1" if len(calls) == 2 else "C"


def gate_ratio(system):
    """lambda_min(C) / (lambda_max(C) + tr K), which the gate compares with _GATE."""
    lo, hi = system.desc._Q_operator._eig_extremes
    return (lo + system.tau) / (hi + system.tau + (0.0 if system.K is None else np.trace(system.K)))


_ILL_H = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


class TestWhitenByC:
    """A quadratic block whose C = tau I + Q carries T_1's conditioning alone
    whitens its pencil by C, from the eigendecomposition of Q that the
    Fenchel--Young gap reads: one eigh of the block's own, none under a
    linearized R.  Any other C whitens T_1 = K + Q by its own eigh."""

    DRIFT = {"c0": 0.5, "law": "inverse_square"}

    def system(self, cond, seed, edge=None, n=30, m=20):
        """The x-system of f = 0.5 x^T Q x with cond(Q) = cond and R = 0,
        K = h A^T A: h = 1, or the fraction ``edge`` of the gate's edge."""
        rng = np.random.default_rng(seed)
        V = np.linalg.qr(rng.normal(size=(n, n)))[0]
        f = FunctionDescriptor("quadratic", n, Q=(V * np.logspace(0, -np.log10(cond), n)) @ V.T, q=np.zeros(n))
        A = rng.normal(size=(m, n))
        lo, hi = f._Q_operator._eig_extremes
        h = 1.0 if edge is None else edge * (lo / admm._GATE - hi) / float(np.vecdot(A, A).sum())
        cfg = {"H": {"type": "scaled_identity", "scale": h}, "R": {"type": "zero"}, "S": {"type": "zero"},
               "c": self.DRIFT, "k_max": 20}
        return BlockSystem(f, A, schedule_from_dict(cfg, (n, m, m), A=A), "R")

    @staticmethod
    def misses(system, seed):
        """miss / tol of the system test for 20 solves at k = 1..20, with
        random linear terms; the basis is formed anew under the current gate."""
        system._basis = None
        ks = np.arange(1, 21)
        Q_lin = np.random.default_rng(seed).normal(size=(len(ks), system.desc.dim))
        U = np.array([system.solve(system.schedule.factor(int(k)), q) for k, q in zip(ks, Q_lin)])
        _, (miss, tol) = system.residuals(ks, U, Q_lin)
        return miss / tol

    def test_first_solve_decomposes_q_for_the_certificate(self, monkeypatch):
        # box_qp 40: the x-block's first solve caches Q's eigendecomposition,
        # and the first certification pass runs no eigh of Q of its own
        p = generate("box_qp", (40,), 1)
        Q = p.f._Q_operator
        events, eigh, solve = [], np.linalg.eigh, BlockSystem.solve

        def spy_eigh(a, *r, **k):
            events.append("eigh Q" if np.array_equal(a, Q.matrix) else "eigh")
            return eigh(a, *r, **k)

        def spy_solve(system, f, q_lin):
            u = solve(system, f, q_lin)
            events.append(f"solve cached={'_eig' in vars(Q)}")
            return u

        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        monkeypatch.setattr(BlockSystem, "solve", spy_solve)
        run = VmPadmmRun(p, schedule_from_dict(TestRunState.DRIFT, p.dims, A=p.A), compute_sigma_theta(1.0))
        assert next(run.certified_blocks(30, rho=0.0, eps=0.0)).ok
        assert next(e for e in events if e.startswith("solve")) == "solve cached=True"
        assert events.count("eigh Q") == 1 and events.count("eigh") == 1  # Q's, then Z^T K Z's

    def test_linearized_r_runs_no_eigh_of_its_own(self, monkeypatch):
        # K = 0: Z = V / sqrt(w + tau) from Q's eigendecomposition is the basis
        p = generate("box_qp", (40,), 1)
        tau = 3.0 * float(np.linalg.eigvalsh(p.A.T @ p.A).max())
        cfg = dict(TestRunState.DRIFT, R={"type": "linearized", "tau": tau})
        args, inside, eigh, factor = [], [], np.linalg.eigh, BlockSystem._factor

        def spy_factor(system):
            inside.append(1)
            try:
                return factor(system)
            finally:
                inside.pop()

        monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: inside and args.append(np.array(a)) or eigh(a, *r, **k))
        monkeypatch.setattr(BlockSystem, "_factor", spy_factor)
        run = VmPadmmRun(p, schedule_from_dict(cfg, p.dims, A=p.A), compute_sigma_theta(1.0))
        assert run._systems[0].K is None
        assert next(run.certified_blocks(30, rho=0.0, eps=0.0)).ok
        assert len(args) == 1 and np.array_equal(args[0], p.f.Q)  # Q's, which the certificate reads

    @pytest.mark.parametrize("edge,path", [(0.99, "C"), (1.01, "T1")])
    def test_gate_edge(self, edge, path):
        # tr K just inside and just outside lambda_min(C) / _GATE - lambda_max(C)
        system = self.system(100.0, 0, edge)
        assert (gate_ratio(system) > admm._GATE) == (path == "C")
        assert whitened_by(system) == path

    @pytest.mark.parametrize("cond", [1.0, 10.0, 100.0, 300.0, 900.0])
    def test_c_path_accuracy_inside_the_gate(self, cond, monkeypatch):
        # K at 0.99 of the gate's edge: the C path's system residual, RMS over
        # 8 instances of 20 solves, stays within 4x of the T_1 path's
        systems = [self.system(cond, seed, 0.99) for seed in range(8)]
        assert {whitened_by(s) for s in systems} == {"C"}
        square = []
        for gate in (admm._GATE, np.inf):  # np.inf sends every block with a K to T_1
            monkeypatch.setattr(admm, "_GATE", gate)
            square.append(sum(np.square(self.misses(s, seed)).sum() for seed, s in enumerate(systems)))
        assert np.sqrt(square[0]) <= 4.0 * np.sqrt(square[1])

    def test_c_path_fails_the_system_test_outside_the_gate(self, monkeypatch):
        # cond(C) = 1e12 with K = A^T A: whitened by C (a gate of 0), solves
        # miss their 1e-8 system test; the gate sends them to T_1, which passes
        systems = [self.system(1e12, seed) for seed in range(4)]
        assert {whitened_by(s) for s in systems} == {"T1"}
        gated = max(self.misses(s, seed).max() for seed, s in enumerate(systems))
        monkeypatch.setattr(admm, "_GATE", 0.0)
        forced = max(self.misses(s, seed).max() for seed, s in enumerate(systems))
        assert gated <= 1.0 < 10.0 < forced

    @pytest.mark.parametrize("kind,dims,seed,H", [
        # the cond(H) = 1e5 gamma-identity failure (both blocks) and the
        # H = 1e6 membership failures pinned by the CLI tests and CI
        ("consensus_ls", (6, 5, 4), 1, {"type": "dense", "matrix": ((_ILL_H * np.logspace(0, 5, 4)) @ _ILL_H.T).tolist()}),
        ("box_qp", (40,), 2, {"type": "scaled_identity", "scale": 1e6}),
        # H = 1e8: the x-solve fails its oracle or its system test at k = 1
        ("box_qp", (40,), 1, {"type": "scaled_identity", "scale": 1e8}),
        ("consensus_ls", (20, 15, 10), 1, {"type": "scaled_identity", "scale": 1e8}),
        ("lasso", (10, 5), 1, {"type": "scaled_identity", "scale": 1e8}),
    ], ids=["ill_h_1e5", "box_qp_h_1e6", "box_qp_h_1e8", "consensus_ls_h_1e8", "lasso_h_1e8"])
    def test_roundoff_pinned_inputs_whiten_t1(self, kind, dims, seed, H):
        # the false failures these inputs pin stay bit for bit where they are
        p = generate(kind, dims, seed)
        cfg = {"H": H, "R": {"type": "zero"}, "S": {"type": "zero"}, "k_max": 50}
        sched = schedule_from_dict(cfg, p.dims, A=p.A)
        for desc, N, family in ((p.f, p.A, "R"), (p.g, p.B, "S")):
            if desc.kind == "quadratic":
                system = BlockSystem(desc, N, sched, family)
                assert gate_ratio(system) < admm._GATE
                assert whitened_by(system) == "T1"


class TestMultiplierUpdate:
    def test_hand_example(self):
        # 1-dim, H = f_k H_0 = 2 * 1, theta=0.5, primal residual 3: gamma drops by 0.5*2*3
        p = scalar_problem()
        x, y, y_prev = np.array([2.0]), np.array([2.0]), np.array([1.0])
        gamma, gamma_t = update_multiplier(
            np.zeros(1), np.eye(1), 2.0, 0.5, p.A @ x + p.B @ y - p.b, p.A @ x + p.B @ y_prev - p.b
        )
        assert gamma[0] == pytest.approx(-3.0)
        # extragradient multiplier uses y_prev and full stepsize: -(2*(2+1-1))
        assert gamma_t[0] == pytest.approx(-4.0)

    def test_gamma_tilde_identity(self):
        # gamma~ - gamma = ((1-theta)/theta)(gamma - gamma_prev) + H B (y - y_prev)
        p = generate("consensus_ls", (4, 3, 2), 5)
        rng = np.random.default_rng(0)
        H0, f = identity(2, 1.7).matrix, 0.8  # H_k = f H_0
        theta = 1.3
        gp, x, y, ypr = rng.normal(size=2), rng.normal(size=4), rng.normal(size=3), rng.normal(size=3)
        gamma, gamma_t = update_multiplier(gp, H0, f, theta, p.A @ x + p.B @ y - p.b, p.A @ x + p.B @ ypr - p.b)
        expected = gamma + (1.0 - theta) / theta * (gamma - gp) + f * H0 @ (p.B @ (y - ypr))
        np.testing.assert_allclose(gamma_t, expected, atol=1e-12)


def _dense_h(m):
    """A dense, well-conditioned H_0 of dimension m."""
    L = np.random.default_rng(11).normal(size=(m, m))
    return {"type": "dense", "matrix": (0.2 * L @ L.T + np.eye(m)).tolist()}


_SCALED_H = {"type": "scaled_identity", "scale": 1.3}
_ZERO = {"type": "zero"}
_INVERSE_SQUARE = {"c0": 0.5, "law": "inverse_square"}
# (generator, dims, H, R, S) under inverse_square drift: dense and scaled H;
# zero, scaled and linearized R; zero and scaled S; B = -I (lasso) and B = I
# (box_qp), which a step multiplies by elementwise, as it does H = h I and a
# diagonal H or R
_STEP_CASES = {
    "h_2_5_lasso": ("lasso", (10, 5), {"type": "scaled_identity", "scale": 2.5}, _ZERO, _ZERO),
    "h_2_5_box_qp": ("box_qp", (12,), {"type": "scaled_identity", "scale": 2.5}, _ZERO, _ZERO),
    "diagonal_h_diagonal_r": ("lasso", (10, 5), {"type": "dense", "matrix": np.diag(np.linspace(0.5, 2.0, 5)).tolist()},
                              {"type": "dense", "matrix": np.diag(np.linspace(0.2, 0.6, 10)).tolist()}, _ZERO),
    "dense_h_scaled_r_scaled_s": ("consensus_ls", (6, 5, 4), _dense_h(4), {"type": "scaled_identity", "scale": 0.5},
                                  {"type": "dense", "matrix": (0.3 * np.eye(5)).tolist()}),
    "zero_r_zero_s": ("lasso", (10, 5), _SCALED_H, _ZERO, _ZERO),
    "zero_r_scaled_s": ("box_qp", (12,), _SCALED_H, _ZERO, {"type": "scaled_identity", "scale": 0.4}),
    "linearized_r": ("lasso", (10, 5), _SCALED_H, "linearized", _ZERO),
    "dense_h_linearized_r": ("consensus_ls", (6, 5, 4), _dense_h(4), "linearized", {"type": "scaled_identity", "scale": 0.3}),
}


def _step_run(case):
    kind, dims, H, R, S = _STEP_CASES[case]
    p = generate(kind, dims, 1)
    if R == "linearized":  # tau = 3 lambda_max(A^T H_0 A) keeps every R_k PSD and sandwiched for c_0 = 0.5
        H0 = np.asarray(H["matrix"]) if H["type"] == "dense" else H["scale"] * np.eye(p.dims[2])
        R = {"type": "linearized", "tau": 3.0 * float(np.linalg.eigvalsh(p.A.T @ H0 @ p.A)[-1])}
    cfg = {"H": H, "R": R, "S": S, "c": _INVERSE_SQUARE, "k_max": 40}
    return VmPadmmRun(p, schedule_from_dict(cfg, p.dims, A=p.A), compute_sigma_theta(1.3))


class TestStepArithmetic:
    """A step forms H_k u as f_k (H_0 u), every P_k u as (s f_k) (P_0 u) + a u
    and no zero P_k u, from the run's constants and f_k: the products and
    roundings of the realized views, so every field of every step is the one
    that applying each family by its (anchor, a, s) formula forms, bit for
    bit."""

    @pytest.mark.parametrize("case", list(_STEP_CASES))
    def test_bitwise_equal_to_the_realized_operators(self, case):
        run = _step_run(case)
        assert len({run.schedule.factor(k) for k in range(41)}) > 2  # the factor drifts
        for k in range(1, 41):
            before = (run.x, run.y, run.gamma)
            got = run.step()
            want = realized_step(run, *before, k)
            for name in (f.name for f in dataclasses.fields(AdmmStep)):
                assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), (k, name)

    @pytest.mark.parametrize("case", [c for c in _STEP_CASES if "linearized" not in c])
    def test_no_operator_per_step(self, case, monkeypatch):
        run = _step_run(case)
        views, affine = [], PsdOperator.affine
        monkeypatch.setattr(PsdOperator, "affine", lambda self, a, b: views.append(b) or affine(self, a, b))
        for _ in range(40):
            run.step()
        assert run.k == 40 and views == []

    def test_step_builds_no_block_system(self, monkeypatch):
        # the run builds both block systems when it is constructed; a step only forms the iterate
        built, init = [], BlockSystem.__init__
        monkeypatch.setattr(BlockSystem, "__init__", lambda system, *a: built.append(a[-1]) or init(system, *a))
        run = _step_run("dense_h_scaled_r_scaled_s")
        assert built == ["R", "S"]
        for _ in range(40):
            run.step()
        assert run.k == 40 and built == ["R", "S"]

    @pytest.mark.parametrize("case", list(_STEP_CASES))
    def test_no_residual_work_per_step(self, case, monkeypatch):
        # a step multiplies by neither K nor Q: a solve's G_k u, residual v and
        # system test are formed in the block's pass, once per system for all rows
        calls = []
        for name in ("metric_apply", "residuals"):
            fn = getattr(BlockSystem, name)
            monkeypatch.setattr(BlockSystem, name, lambda system, *a, _n=name, _fn=fn: calls.append(
                (_n, system)) or _fn(system, *a))
        run = _step_run(case)
        for _ in range(40):
            run.step()
        assert run.k == 40 and calls == []
        run = _step_run(case)
        force_block_rows(monkeypatch, 32)
        blocks = list(run.certified_blocks(40, rho=0.0, eps=0.0))
        assert [len(blk) for blk in blocks] == [32, 8]
        per_pass = [(name, system) for system in run._systems for name in ("residuals", "metric_apply")]
        assert calls == per_pass * len(blocks)

    @pytest.mark.parametrize("case", [c for c in _STEP_CASES if "linearized" in c])
    def test_drifting_linearized_r_forms_no_matrix(self, case, monkeypatch):
        # R_k = tau I - f_k G is applied as tau u - f_k (G u) from the run's
        # constants: a step constructs no operator and no view, so it forms
        # no n x n matrix for a new f_k
        run = _step_run(case)
        run.step()
        built = []
        for cls in (PsdOperator, _RowViews):
            init = cls.__init__
            monkeypatch.setattr(cls, "__init__", lambda op, *a, _init=init, **kw: built.append(op) or _init(op, *a, **kw))
        factors = set()
        for k in range(2, 41):
            run.step()
            factors.add(run.schedule.factor(k))
        assert run.k == 40 and len(factors) > 2 and built == []


class TestDiagonalSystem:
    """A quadratic block whose T_1 = K + tau I + Q is exactly diagonal is
    solved by one division by T_k's diagonal, without the basis of
    ``BlockSystem._factor``; every other diagonal operator of a step is kept
    in its compact form and multiplied elementwise."""

    @staticmethod
    def diagonal_system(rng, n=6):
        # K = A^T H_0 A + R_0 = diag(1.3 a^2 + 0.4) and Q diagonal: T_k is diagonal at every f_k
        f = FunctionDescriptor("quadratic", n, Q=np.diag(rng.uniform(0.1, 10.0, n)), q=rng.normal(size=n))
        p = ProblemSpec(f, FunctionDescriptor("zero", n), np.diag(rng.uniform(0.1, 3.0, n)), np.eye(n), np.zeros(n))
        cfg = {"H": _SCALED_H, "R": {"type": "scaled_identity", "scale": 0.4}, "S": _ZERO, "c": _INVERSE_SQUARE,
               "k_max": 8}
        return BlockSystem(p.f, p.A, schedule_from_dict(cfg, p.dims, A=p.A), "R")

    @staticmethod
    def basis_solve(system, f, q_lin):
        W, a = system._factor()
        return W @ ((W.T @ -(q_lin + system.desc.q)) / (1.0 + (f - 1.0) * a))

    def test_matches_the_basis_solve(self):
        rng = np.random.default_rng(21)
        run = _step_run("linearized_r")  # lasso: T_k = Q + tau I = (1 + tau) I under a linearized R
        run.step()
        for system in [self.diagonal_system(rng) for _ in range(5)] + [run._systems[0]]:
            assert system._range is not None and system._range.all()
            factors = {system.schedule.factor(k) for k in range(1, 9)}
            assert len(factors) > 2
            for f in factors:
                q_lin = rng.normal(size=system.desc.dim)
                np.testing.assert_allclose(system.solve(f, q_lin), self.basis_solve(system, f, q_lin), rtol=1e-13, atol=0)

    def test_zero_diagonal_entry_gives_the_minimum_norm_zero(self):
        # T_1 = diag(2.3, 0, 3): the consistent system leaves u_2 free, and
        # lstsq's minimum-norm solution sets it to 0, with no division by 0
        f = FunctionDescriptor("quadratic", 3, Q=np.diag([1.0, 0.0, 3.0]), q=np.array([1.0, 0.0, -2.0]))
        p = ProblemSpec(f, FunctionDescriptor("zero", 1), np.array([[1.0, 0.0, 0.0]]), np.eye(1), np.zeros(1))
        cfg = {"H": _SCALED_H, "R": _ZERO, "S": _ZERO, "c": _INVERSE_SQUARE, "k_max": 8}
        system = BlockSystem(p.f, p.A, schedule_from_dict(cfg, p.dims, A=p.A), "R")
        assert system._range.tolist() == [True, False, True]
        rng = np.random.default_rng(22)
        for k in range(1, 9):
            f_k = system.schedule.factor(k)
            x_prev, By_prev, gamma = rng.normal(size=3), rng.normal(size=1), rng.normal(size=1)
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                x, q_lin = solve_x_subproblem(p, x_prev, By_prev, gamma, system, k)
            T = np.diag([1.3 * f_k + 1.0, 0.0, 3.0])
            np.testing.assert_allclose(x, np.linalg.lstsq(T, -(q_lin + f.q), rcond=None)[0], rtol=1e-14, atol=0)
            assert x[1] == 0.0
            _, (miss, tol) = system.residuals(np.array([k]), x[None], q_lin[None])
            assert miss[0] <= tol[0]  # the system test holds

    def test_no_basis_for_a_diagonal_system(self, monkeypatch):
        calls, factor = [], BlockSystem._factor
        monkeypatch.setattr(BlockSystem, "_factor", lambda system: calls.append(system) or factor(system))
        run = _step_run("linearized_r")  # lasso: T_k = (1 + tau) I
        blocks = list(run.certified_blocks(40, rho=0.0, eps=0.0))
        assert run.k == 40 and all(blk.ok for blk in blocks) and calls == []
        run = _step_run("zero_r_zero_s")  # lasso with R = 0: T_1 = A^T H_0 A + I is dense
        list(run.certified_blocks(40, rho=0.0, eps=0.0))
        assert calls == [run._systems[0]]

    def test_diagonal_operators_are_compact(self):
        for case, (h, n_y) in (("h_2_5_lasso", (2.5, -1.0)), ("h_2_5_box_qp", (2.5, 1.0))):
            run = _step_run(case)
            run.step()
            x_system, y_system = run._systems
            assert x_system.H0.ndim == 0 and x_system.H0 == h
            assert y_system._N.ndim == 0 and y_system._N == n_y
            assert x_system._N is run.problem.A  # a dense N is multiplied as it is
        run = _step_run("zero_r_scaled_s")
        run.step()
        assert run._systems[1].P[0].ndim == 0 and run._systems[1].P[0] == 0.4
        run = _step_run("dense_h_scaled_r_scaled_s")
        run.step()
        assert run._systems[0].H0.ndim == 2 and run._systems[1].P[0].ndim == 0
        run = _step_run("diagonal_h_diagonal_r")  # another diagonal is its vector
        run.step()
        np.testing.assert_array_equal(run._systems[0].H0, np.linspace(0.5, 2.0, 5))
        np.testing.assert_array_equal(run._systems[0].P[0], np.linspace(0.2, 0.6, 10))


class TestFixedPoint:
    def test_stationary_at_reference_solution(self):
        p = generate("consensus_ls", (5, 4, 3), 8)
        ref = reference_solve(p)
        sched = constant_schedule(p.dims, 10, h_scale=1.0, r_scale=0.5, s_scale=0.5)
        params = compute_sigma_theta(1.0)
        run = VmPadmmRun(p, sched, params, x0=ref.x, y0=ref.y, gamma0=ref.gamma, reference=ref)
        blk = next(run.certified_blocks(1, rho=0.0, eps=0.0))
        x, _, gamma = blk.iterate.M.split(blk.iterate.z)
        assert blk.dual_max <= 1e-8
        np.testing.assert_allclose(x[0], ref.x, atol=1e-8)
        np.testing.assert_allclose(gamma[0], ref.gamma, atol=1e-8)


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
        for k, step in enumerate(one_row_blocks(self.run.certified_blocks(50, rho=0.0, eps=0.0)), start=1):
            it = step.iterate
            self.steps.append(step)
            self.iterates.append(it)
            self.pointwise.append(step.pointwise)
            self.ergodic.append(step.ergodic)
            self.eps_full.append(step.ergodic.eps)
            z_tildes.append(it.z_tilde)
            residuals.append(it.r)
            zt_a = sum(z_tildes) / k
            self.hpe_eps_direct.append(sum(float(np.vdot(r, zt - zt_a)) for r, zt in zip(residuals, z_tildes)) / k)

    def test_eta_formula_recomputed(self):
        p = self.params
        for it in self.iterates[:10]:
            gam = it.M.blocks[2]
            S_k = dense_realized(self.sched, int(it.k[0]))[2]
            _, dy, dgamma = it.M.split(it.preimage)
            expected = (
                (p.sigma - (p.theta - 1.0) ** 2) / p.theta**2 * gam.seminorm(dgamma) ** 2
                + np.sqrt(2.0) * (p.sigma + p.theta - 1.0) / p.theta * S_k.seminorm(dy) ** 2
            )
            assert it.eta == pytest.approx(expected, rel=1e-12)

    def test_gamma_residual_equals_primal_residual(self):
        for it in self.iterates:
            x, y, _ = it.M.split(it.z)
            primal = x @ self.p.A.T + y @ self.p.B.T - self.p.b
            np.testing.assert_allclose(it.M.split(it.r)[2], primal, atol=1e-12)

    def test_metric_seminorm_decomposes_over_blocks(self):
        for step in self.steps[:5]:
            it = step.iterate
            total = it.M.seminorm(it.preimage) ** 2
            parts = step.dual_x**2 + step.dual_y**2 + step.dual_gamma**2
            assert total == pytest.approx(parts, rel=1e-10, abs=1e-14)

    def test_hpe_condition_holds_throughout(self):
        assert all(step.hpe_check.ok for step in self.steps)

    def test_records_print(self):
        # a block and the run's last iterate hold stacks of metric views, which
        # print as their base's affine map; records compare by identity
        run = VmPadmmRun(self.p, self.sched, self.params)
        blk = next(iter(run.certified_blocks(5, rho=0.0, eps=0.0)))
        for record in (blk, run.hpe.last, self.steps[-1]):
            assert repr(record).startswith(f"{type(record).__name__}(") and ".affine(" in repr(record)
        assert blk == blk and blk != row_of(blk, slice(0, len(blk.iterate.k)))

    def test_no_pointwise_certificate_before_the_first_iterate(self):
        # the running best starts as a row at k = 0 with +inf duals, which no
        # certificate reads: the first iterate beats it
        run = VmPadmmRun(self.p, self.sched, self.params)
        with pytest.raises(ValueError, match="no iterate yet"):
            run.pointwise_kkt_certificate()
        assert self.pointwise[0].index == 1 and np.isfinite(self.pointwise[0].dual_max)

    def test_pointwise_certificate_monotone_best(self):
        best = [self.pointwise[k - 1].dual_max for k in (1, 10, 30, 50)]
        assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))
        for k, cert in enumerate(self.pointwise, start=1):
            duals = [step.dual_max for step in self.steps[:k]]
            assert cert.index == int(np.argmin(duals)) + 1
            assert cert.dual_max == min(duals)
        cert = self.pointwise[-1]
        assert cert.dual_max <= cert.bound_residual
        # the certificate carries no memberships of its own: the best iterate's
        # are its row's, which hold inside that step's verdict
        assert cert.memberships == {}
        best = self.steps[int(cert.index[0]) - 1]
        assert list(best.memberships) == ["membership_x", "membership_y"]
        for c in best.memberships.values():
            assert sum(c is d for d in best.checks["memberships"]) == 1 and c.ok

    def test_ergodic_eps_decomposition(self):
        for k in range(1, 51):
            cert, eps_full = self.ergodic[k - 1], self.eps_full[k - 1]
            assert eps_full == pytest.approx(cert.eps_x + cert.eps_y, abs=1e-9 * (1 + abs(eps_full[0])))
            assert cert.checks["eps_decomposition"].ok
            assert eps_full == pytest.approx(self.hpe_eps_direct[k - 1], abs=1e-12)

    def test_ergodic_accumulators_match_recomputation(self):
        A, B = self.p.A, self.p.B
        for k in range(1, 51):
            its = self.iterates[:k]
            # each iterate's (x, y, gamma~) and (r_x, r_y, r_gamma), as its metric's blocks
            (xs, ys, gts), (rxs, rys, rgs) = (list(zip(*(i.M.split(getattr(i, f)) for i in its))) for f in ("z_tilde", "r"))
            cert = self.ergodic[k - 1]
            x_a, y_a, gt_a = cert.x, cert.y, cert.gamma_tilde
            rx_a, ry_a, rg_a = cert.r_x, cert.r_y, cert.r_gamma
            np.testing.assert_allclose(x_a, sum(xs) / k, atol=1e-12)
            np.testing.assert_allclose(y_a, sum(ys) / k, atol=1e-12)
            np.testing.assert_allclose(gt_a, sum(gts) / k, atol=1e-12)
            np.testing.assert_allclose(rx_a, sum(rxs) / k, atol=1e-12)
            np.testing.assert_allclose(ry_a, sum(rys) / k, atol=1e-12)
            np.testing.assert_allclose(rg_a, sum(rgs) / k, atol=1e-12)
            dsx = sum(float(np.vdot(r + g @ A, x)) for r, g, x in zip(rxs, gts, xs)) / k
            dsy = sum(float(np.vdot(r + g @ B, y)) for r, g, y in zip(rys, gts, ys)) / k
            assert cert.eps_x == pytest.approx(dsx - float(np.vdot(rx_a + gt_a @ A, x_a)), abs=1e-12)
            assert cert.eps_y == pytest.approx(dsy - float(np.vdot(ry_a + gt_a @ B, y_a)), abs=1e-12)

    def test_membership_certificates_sampled(self):
        # the exact eps-memberships hold at every k, and at k = 50 (read after
        # the run, a one-row column) a sampled check of the same inequality
        # finds no violation either
        for cert in self.ergodic:
            assert list(cert.memberships) == ["eps_subdiff_x", "eps_domain_x", "eps_subdiff_y", "eps_domain_y"]
            assert all(c.ok for c in cert.memberships.values()), cert.memberships
        cert = self.run.ergodic_kkt_certificate()
        assert cert.k == 50
        assert all(c.ok for c in (*cert.checks.values(), *cert.memberships.values()))
        rng = np.random.default_rng(0)
        x, y, gt, r_x, r_y = (v[0] for v in (cert.x, cert.y, cert.gamma_tilde, cert.r_x, cert.r_y))
        s_x = r_x + self.p.A.T @ gt
        s_y = r_y + self.p.B.T @ gt
        assert sampled_eps_check(self.p.f, s_x, x, float(cert.eps_x[0]), rng)
        assert sampled_eps_check(self.p.g, s_y, y, float(cert.eps_y[0]), rng)

    def test_run_stopping(self):
        run = VmPadmmRun(self.p, constant_schedule(self.p.dims, 400, h_scale=1.0), self.params)
        steps = one_row_blocks(run.certified_blocks(400, rho=1e-3, eps=1e-3))
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
        assert block_ks(run.certified_blocks(50, rho=0.0, eps=0.0)) == [1, 2, 3, 4, 5]
        assert list(run.certified_blocks(50, rho=0.0, eps=0.0)) == []
        run = VmPadmmRun(self.p, constant_schedule(self.p.dims, 5, h_scale=1.0), self.params)
        assert len(block_ks(run.certified_blocks(2, rho=0.0, eps=0.0))) == 2
        assert block_ks(run.certified_blocks(50, rho=0.0, eps=0.0)) == [3, 4, 5]

    def test_uncertified_steps_refused(self):
        # a step taken by step() alone is never certified: the loop refuses to
        # start after it and leaves the run as it stands
        run = VmPadmmRun(self.p, constant_schedule(self.p.dims, 60, h_scale=1.0), self.params)
        run.step()
        x, y, gamma = run.x.copy(), run.y.copy(), run.gamma.copy()
        with pytest.raises(ValueError, match=r"^steps k = 1\.\.1 were taken by step\(\) and are not certified$"):
            next(run.certified_blocks(5, rho=0.0, eps=0.0))
        assert run.k == 1 and run.hpe.k == 0
        assert all(np.array_equal(a, b) for a, b in ((run.x, x), (run.y, y), (run.gamma, gamma)))

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
        M0 = assemble_Mk(*dense_realized(self.sched, 0), self.p.B, self.params.theta)
        dist_sq = M0.seminorm(z_star - self.run.hpe.z0) ** 2
        expected = self.sched.C_P * (dist_sq + self.run.eta0)
        ks = []
        for step in one_row_blocks(self.run.certified_blocks(20, rho=0.0, eps=0.0)):
            ks.append(int(step.fejer.k[0]))
            assert step.fejer.rhs == expected
            assert step.fejer.ok and step.ok
        assert ks == list(range(1, 21))  # a Fejer check at every k

    def test_seminorm_calls_per_iteration(self, monkeypatch):
        force_block_rows(monkeypatch, 16)
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
        # a step builds no M_k of its own: a pass builds its rows' stacked M_k
        # once, a view each of R_k, f_k mid_0 and gam_0 / f_k, and the view of
        # S_k that eta reads; its commit the M_k of the iteration it keeps,
        # one row of each of M_k's three views
        calls, views = [], []
        post_init, init = BlockDiagOperator.__post_init__, _RowViews.__init__
        monkeypatch.setattr(BlockDiagOperator, "__post_init__", lambda op: calls.append(op) or post_init(op))
        monkeypatch.setattr(_RowViews, "__init__", lambda op, *a: views.append(op) or init(op, *a))
        force_block_rows(monkeypatch, 32)
        run = VmPadmmRun(self.p, schedule_from_dict(dict(self.DRIFT, k_max=32), self.p.dims), self.params)
        calls.clear(), views.clear()  # M_0's, built with the run
        (blk,) = run.certified_blocks(32, rho=0.0, eps=0.0)
        assert len(blk) == 32 and len(calls) <= 2 and len(views) <= 7
        force_block_rows(monkeypatch, 16)
        calls.clear(), views.clear()
        blocks = list(self.run.certified_blocks(30, rho=0.0, eps=0.0))
        assert [len(blk) for blk in blocks] == [16, 14]
        assert len(calls) <= 2 * len(blocks) and len(views) <= 7 * len(blocks)

    def test_duals_from_formed_residuals(self):
        # ||d||_Q = sqrt(<d, r>) from the residual r = Q d the step forms, bit
        # for bit the seminorm, on drifting (scaled) metrics
        for step in one_row_blocks(self.run.certified_blocks(10, rho=0.0, eps=0.0)):
            it = step.iterate
            R_k, mid_k, gam_k = it.M.blocks
            dx, dy, dgamma = it.M.split(it.preimage)
            assert it.M is not self.run.M0
            assert step.dual_x == R_k.seminorm(dx)
            assert step.dual_y == mid_k.seminorm(dy)
            assert step.dual_gamma == gam_k.seminorm(dgamma)

    @pytest.mark.parametrize("group,path", [
        ("hpe", ("hpe_check",)),
        ("bounds", ("pointwise", "checks", "pointwise_res")),
        ("bounds", ("ergodic", "checks", "eps_decomposition")),
        ("memberships", ("memberships", "membership_y")),
        ("memberships", ("ergodic", "memberships", "eps_domain_x")),
        ("fejer", ("fejer",)),
    ])
    def test_one_failing_check_fails_the_step(self, group, path):
        steps = one_row_blocks(self.run.certified_blocks(5, rho=0.0, eps=0.0))
        assert all(s.ok for s in steps)
        step = steps[-1]
        assert list(step.checks) == ["hpe", "bounds", "memberships", "fejer"]
        bad = BoundCheck("broken", step.iterate.k, 1.0, 0.0, tol_rel=0.0)
        broken = replaced(step, path, bad)
        assert bad in broken.checks[group]
        assert not broken.ok
        assert step.ok  # the original step is untouched


def held_checks(record):
    """Every :class:`BoundCheck` that a block or a certificate holds: its
    fields, the values of its dict fields, and those of its certificates."""
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        for v in value.values() if isinstance(value, dict) else (value,):
            if isinstance(v, BoundCheck):
                yield v
            elif isinstance(v, KktResidualCertificate):
                yield from held_checks(v)


class TestEveryRecordInTheVerdict:
    """Every check a certified block holds enters its one verdict once: each
    iterate's memberships at its own k, whether or not it is ever the
    pointwise best."""

    def test_failing_membership_of_an_iterate_never_the_best(self, monkeypatch):
        # lasso 10x5 seed 1 at theta = 1.5: iterate 2 is never the pointwise best
        p = generate("lasso", (10, 5), 1)
        run = VmPadmmRun(p, constant_schedule(p.dims, 32, h_scale=1.0), compute_sigma_theta(1.5))
        calls = break_second_stacked_call(monkeypatch, "l1", row=1)  # the certificate's, at k = 2
        (blk,) = run.certified_blocks(32, rho=0.0, eps=0.0)
        assert calls == [32, 32] and len(blk) == 32  # the y-solve oracle's call, left intact, then it
        assert not (blk.pointwise.index == 2).any()
        assert blk.memberships["membership_x"].ok.all()
        assert blk.iterate.k[~blk.memberships["membership_y"].ok].tolist() == [2]
        verdict = np.logical_and.reduce([c.ok for group in blk.checks.values() for c in group])
        assert blk.iterate.k[~verdict].tolist() == [2]
        assert not blk.ok

    @pytest.mark.parametrize("decaying", [False, True], ids=["zero", "inverse_square"])
    def test_every_held_check_is_in_the_verdict_once(self, decaying):
        # two blocks on each acceptance shape: no check is formed and then left out
        for kind, dims, seed in INSTANCES:
            p = generate(kind, dims, seed)
            run = VmPadmmRun(p, make_schedule(p.dims, p.A, decaying), compute_sigma_theta(1.0))
            for blk in run.certified_blocks(40, rho=0.0, eps=0.0):
                held = list(held_checks(blk))
                verdict = [c for group in blk.checks.values() for c in group]
                assert len(held) == len(verdict) == 15
                for c in held:
                    assert sum(c is d for d in verdict) == 1, (p.name, c.name)
                assert blk.pointwise.memberships == {}


class TestBlockStop:
    """The stopping rules can hold inside a block: the run then stands after
    that k, as if it had been certified one iteration at a time."""

    @staticmethod
    def two_calls(p, sched):
        run = VmPadmmRun(p, sched, compute_sigma_theta(1.0))
        first = one_row_blocks(run.certified_blocks(40, rho=0.1, eps=0.1))
        k = run.k
        return first, k, one_row_blocks(run.certified_blocks(5, rho=0.0, eps=0.0))

    @pytest.mark.parametrize("block", [None, 32, 2], ids=["one_pass", "passes_of_32", "passes_of_two"])
    def test_stop_inside_a_block(self, block, monkeypatch):
        # k = 22 lies inside the first block of the dimension's length (102
        # rows at dimension 20) and of 32 rows, and ends a block of two
        if block:
            force_block_rows(monkeypatch, block)
        p = generate("lasso", (10, 5), 3)
        sched = constant_schedule(p.dims, 40, h_scale=1.0)
        first, k, more = self.two_calls(p, sched)
        assert k == 22 and [int(s.iterate.k[0]) for s in first] == list(range(1, 23))
        stop = (first[-1].first_k_pointwise, first[-1].first_k_ergodic)
        assert max(stop) == 22
        assert [int(s.iterate.k[0]) for s in more] == [23, 24, 25, 26, 27]
        force_block_rows(monkeypatch, 1)
        one_first, one_k, one_more = self.two_calls(p, sched)
        assert one_k == 22 and len(one_first) == 22
        assert (one_first[-1].first_k_pointwise, one_first[-1].first_k_ergodic) == stop
        for got, want in zip(more, one_more):
            for name in ("k", "z", "z_tilde"):  # the same steps from the same state
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
                    np.hstack([cert.dual_max, cert.eps_x, cert.eps_y]),
                    np.hstack([want_cert.dual_max, want_cert.eps_x, want_cert.eps_y]),
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
        np.testing.assert_allclose(np.hstack([got.dual_max, got.eps_x, got.eps_y]),
                                   np.hstack([want.dual_max, want.eps_x, want.eps_y]), rtol=1e-9, atol=1e-12)

    def test_certificates_read_after_the_stop(self, monkeypatch):
        # read after a stop inside a block, the run's certificates are the last
        # yielded row's, as one-row columns; to roundoff only, because the
        # pass forms them from the block's stacked products and the re-read
        # from one row's
        p = generate("lasso", (10, 5), 3)
        sched = constant_schedule(p.dims, 40, h_scale=1.0)

        def stop_and_read():
            run = VmPadmmRun(p, sched, compute_sigma_theta(1.0))
            last = one_row_blocks(run.certified_blocks(40, rho=0.1, eps=0.1))[-1]
            assert run.k == last.iterate.k == 22
            return (last.pointwise, last.ergodic), (run.pointwise_kkt_certificate(), run.ergodic_kkt_certificate())

        yielded, read = stop_and_read()
        force_block_rows(monkeypatch, 1)
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
            for blk in run.certified_blocks(50, rho=0.0, eps=0.0):
                certified += blk.iterate.k.tolist()
        assert certified == [1, 2] and run.k == 2


_SOLVE, _RESIDUALS = BlockSystem.solve, BlockSystem.residuals


class TestFailFast:
    """Each step's system tests, optimality oracles and gamma residual
    identity are checked in its block's pass.  The first failing k raises
    after the rows before it are certified and yielded, and the run stands
    after the last of them: the same error, rows and state as when each step
    is certified on its own."""

    @staticmethod
    def drive(run, max_iters=60, rho=0.0):
        """(the yielded ks, the error raised or None, the run's state after it)."""
        ks, error = [], None
        try:
            for blk in run.certified_blocks(max_iters, rho=rho, eps=rho):
                ks += blk.iterate.k.tolist()
        except Exception as exc:
            error = exc
        return ks, error, (run.k, run.x, run.y, run.gamma, run._By)

    @staticmethod
    def sabotage(monkeypatch, p, block=None, at=None, y_raises_at=None):
        """The residual v = -(G_k u + q_lin) that the pass forms for the row
        of k = ``at`` of each solve of the problem ``p`` named in ``block``
        ("x", "y" or both) moved off d desc(u) (by at least 1 in every entry),
        and the y-solve at k = ``y_raises_at`` raising; one y-solve per step
        counts k."""
        calls = {"y": 0}

        def solve(system, f, q_lin):
            if system.N is p.B:  # the y-solve
                calls["y"] += 1
                if calls["y"] == y_raises_at:
                    raise SubproblemError(f"y-solve raised at k = {y_raises_at}")
            return _SOLVE(system, f, q_lin)

        def residuals(system, ks, U, Q_lin):
            V, test = _RESIDUALS(system, ks, U, Q_lin)
            if block and ("x" if system.N is p.A else "y") in block:
                V = V + (ks == at)[:, None] * (1.0 + np.abs(V))
            return V, test

        monkeypatch.setattr(BlockSystem, "solve", solve)
        monkeypatch.setattr(BlockSystem, "residuals", residuals)

    @staticmethod
    def run(p):
        return VmPadmmRun(p, constant_schedule(p.dims, 60, h_scale=1.0), compute_sigma_theta(1.0))

    @pytest.mark.parametrize("kind,dims", [("box_qp", (40,)), ("consensus_ls", (20, 15, 10))])
    def test_large_penalty_fails_the_first_x_oracle(self, kind, dims):
        # H = 1e8 I: the x-solve's residual misses d f(x_1) beyond the oracle's
        # tolerance at k = 1, so no row is certified and the run stays at z_0
        p = generate(kind, dims, 1)
        cfg = {"H": {"type": "scaled_identity", "scale": 1e8}, "R": {"type": "zero"}, "S": {"type": "zero"},
               "c": {"c0": 0.0, "law": "zero"}, "k_max": 300}
        run = VmPadmmRun(p, schedule_from_dict(cfg, p.dims, A=p.A), compute_sigma_theta(1.0))
        ks, error, (k, *z) = self.drive(run, 300)
        assert type(error) is SubproblemError
        assert str(error).startswith("x-subproblem optimality violated at k = 1: distance ")
        assert ks == [] and k == 0 and run.hpe.k == 0
        assert not any(v.any() for v in z)  # x, y, gamma and B y of z_0 = 0

    @pytest.mark.parametrize("block,at,rho,last", [
        ("x", 5, 0.0, 4),  # inside the first block
        ("y", 40, 0.0, 39),  # inside the second
        ("x", 33, 0.0, 32),  # the second block's first row
        ("y", 33, 0.0, 32),
        ("xy", 9, 0.0, 8),  # both oracles fail at k = 9: the x oracle's comes first
        ("x", 25, 0.1, 22),  # past the stop at k = 22: never raised
    ])
    def test_sabotaged_solve_as_one_step_at_a_time(self, block, at, rho, last, monkeypatch):
        p = generate("lasso", (10, 5), 3)
        results = []
        for rows in (32, 1):
            force_block_rows(monkeypatch, rows)
            self.sabotage(monkeypatch, p, block, at)
            results.append(self.drive(self.run(p), rho=rho))
        (ks, error, state), (one_ks, one_error, one_state) = results
        assert ks == one_ks == list(range(1, last + 1))
        assert state[0] == one_state[0] == last
        for got, want in zip(state[1:], one_state[1:]):  # x, y, gamma and B y of the last certified step
            assert np.array_equal(got, want)
        if rho:
            assert error is None and one_error is None
            return
        assert type(error) is type(one_error) is SubproblemError
        head = f"{block[0]}-subproblem optimality violated at k = {at}: distance "
        assert str(error).startswith(head) and str(one_error).startswith(head)
        assert float(str(error)[len(head):]) == pytest.approx(float(str(one_error)[len(head):]), rel=1e-9)

    @pytest.mark.parametrize("at", [5, 33])  # inside the first block, and the second block's first row
    def test_solve_off_its_system(self, at, monkeypatch):
        # the x-solve's u moved off its system at k = at: the pass's system
        # test, which comes before the oracle, raises there
        p = generate("lasso", (10, 5), 3)
        results = []
        for rows in (32, 1):
            force_block_rows(monkeypatch, rows)
            calls = {"x": 0}

            def solve(system, f, q_lin):
                u = _SOLVE(system, f, q_lin)
                if system.N is p.A:  # the x-solve
                    calls["x"] += 1
                    if calls["x"] == at:
                        u = u + 1e-3 * (1.0 + np.abs(u))
                return u

            monkeypatch.setattr(BlockSystem, "solve", solve)
            results.append(self.drive(self.run(p)))
        (ks, error, state), (one_ks, one_error, one_state) = results
        assert ks == one_ks == list(range(1, at))
        assert state[0] == one_state[0] == at - 1
        for got, want in zip(state[1:], one_state[1:]):  # x, y, gamma and B y of the last certified step
            assert np.array_equal(got, want)
        assert type(error) is type(one_error) is SubproblemError
        head = f"x-subproblem quadratic part is singular at k = {at}: residual "
        assert str(error).startswith(head) and str(one_error).startswith(head)

    def test_raising_y_solve_after_the_rows_before_it(self, monkeypatch):
        # a solve that raises inside a step (as numpy may, under np.errstate(all="raise"))
        # does so after the rows before it are certified, and the run stands after them
        p = generate("lasso", (10, 5), 3)
        self.sabotage(monkeypatch, p, y_raises_at=7)
        ks, error, (k, *_) = self.drive(self.run(p))
        assert type(error) is SubproblemError and str(error) == "y-solve raised at k = 7"
        assert ks == list(range(1, 7)) and k == 6


class TestFactorOnce:
    """After the first step, a certified iteration runs no eigh, eigvalsh or
    lstsq: the metrics are views of the anchor operators and the subproblem
    systems are decomposed once."""

    LAPACK = ("eigh", "eigvalsh", "lstsq")

    def count_decompositions(self, cfg, monkeypatch, p=None):
        # blocks of two: the iterations after the first block are stepped and
        # certified while the decompositions are counted
        force_block_rows(monkeypatch, 2)
        p = p or generate("lasso", (10, 5), 7)
        sched = schedule_from_dict(cfg, p.dims, A=p.A)
        run = VmPadmmRun(p, sched, compute_sigma_theta(1.0))
        blocks = run.certified_blocks(6, rho=0.0, eps=0.0)
        assert next(blocks).ok
        calls = []
        for name in self.LAPACK:
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, _n=name, _fn=fn, **k: calls.append(_n) or _fn(*a, **k)
            )
        for blk in blocks:
            assert blk.ok
        assert run.k == 6
        return calls

    @pytest.mark.parametrize("kind,dims", [("lasso", (10, 5)), ("box_qp", (12,)), ("consensus_ls", (6, 5, 4))])
    def test_one_eigvalsh_per_quadratic_q(self, kind, dims, monkeypatch):
        # the descriptor's PSD verdict and the Fenchel-Young gap read one
        # decomposed Q: a dense Q is decomposed once, lasso's Q = I by sorting
        args, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *r, **k: args.append(np.array(a)) or eigvalsh(a, *r, **k))
        p = generate(kind, dims, 1)
        run = VmPadmmRun(p, schedule_from_dict(TestRunState.DRIFT, p.dims, A=p.A), compute_sigma_theta(1.0))
        assert next(run.certified_blocks(40, rho=0.0, eps=0.0)).ok
        quadratics = [d for d in (p.f, p.g) if d.kind == "quadratic"]
        assert quadratics and all(d.Q.any() for d in quadratics)
        for d in quadratics:
            forms = (d.Q, 0.5 * (d.Q + d.Q.T))
            dense = np.count_nonzero(d.Q - np.diag(np.diag(d.Q))) > 0
            assert dense == (kind != "lasso")
            assert sum(any(a.shape == Q.shape and (a == Q).all() for Q in forms) for a in args) == int(dense)

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
        # R_0 of M_0 is the R family's a I + s f_0 anchor
        np.testing.assert_array_equal(applied(run.M0.blocks[0]), applied(dense_realized(sched, 0)[1]))
        for step in one_row_blocks(run.certified_blocks(sched.k_max, rho=0.0, eps=0.0)):
            assert step.ok
            metrics.append(step.iterate.M)
            # R_k of the certified record is the R family's a I + s f_k anchor
            np.testing.assert_array_equal(applied(step.iterate.M.blocks[0]),
                                          applied(dense_realized(sched, int(step.iterate.k[0]))[1]))
        assert run.k == sched.k_max and len({sched.factor(k) for k in range(7)}) == 7  # f_k moves at every k
        for k, M in enumerate(metrics):
            # the oracle: M_k assembled from dense a I + s f_k anchor operators
            ref = assemble_Mk(*dense_realized(sched, k), p.B, 1.3)
            for got, want in zip(M.blocks, ref.blocks):
                np.testing.assert_allclose(applied(got), applied(want), rtol=1e-12, atol=1e-14)
        assert len(calls) == 1  # M_0, once per run
        VmPadmmRun(p, sched, compute_sigma_theta(0.9))  # another run assembles its own M_0
        assert len(calls) == 2

    def test_zero_law_uses_M0(self):
        p, sched = self.case(self.R_DESCS["linearized"], law="zero")
        run = VmPadmmRun(p, sched, compute_sigma_theta(1.3))
        for step in one_row_blocks(run.certified_blocks(sched.k_max, rho=0.0, eps=0.0)):
            for got, want in zip(step.iterate.M.blocks, run.M0.blocks, strict=True):
                np.testing.assert_array_equal(applied(got), applied(want))
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
        z_star = np.concatenate([ref.x, ref.y, ref.gamma])
        d0 = compute_d0_admm(z_star, M0, z_star.copy())
        assert d0 == pytest.approx(0.0, abs=1e-12)

    def test_scalar_value(self):
        p = scalar_problem()
        # R=0, S=0, H=1, B=1, theta=1: d0^2 = (y0-y*)^2 * 1 + (g0-g*)^2
        M0 = assemble_Mk(identity(1), zero_operator(1), zero_operator(1), p.B, 1.0)
        d0 = compute_d0_admm(np.array([0.5, 0.5, 0.5]), M0, np.zeros(3))
        assert d0 == pytest.approx(np.sqrt(0.25 + 0.25))

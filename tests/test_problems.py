import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import ZERO_F_PROBLEM, plain_admm_per_iteration_solve, sampled_eps_check, subgradient

import vmpadmm.problems
from vmpadmm.admm import eps_subdifferential_checks
from vmpadmm.problems import (
    FunctionDescriptor,
    ProblemSpec,
    _active_set,
    _factored_solver,
    _kkt_point,
    _kkt_solve,
    generate,
    kkt_residual,
    plain_admm,
    plain_admm_iterates,
    problem_from_dict,
    reference_solve,
)


class TestGenerators:
    def test_lasso_deterministic(self):
        a = generate("lasso", (10, 5), 7)
        b = generate("lasso", (10, 5), 7)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.f.q, b.f.q)
        assert a.name == b.name

    def test_lasso_structure(self):
        p = generate("lasso", (10, 5), 7)
        assert p.f.kind == "quadratic" and p.g.kind == "l1"
        np.testing.assert_array_equal(p.B, -np.eye(5))
        np.testing.assert_array_equal(p.b, np.zeros(5))

    def test_box_qp_feasible_by_construction(self):
        p = generate("box_qp", 12, 3)
        assert p.g.kind == "box"
        # b was built from a feasible (x_hat, y_hat in the box)
        ref = reference_solve(p)
        assert np.all(ref.y >= p.g.lower - 1e-8)
        assert np.all(ref.y <= p.g.upper + 1e-8)

    def test_consensus_exact_feasibility(self):
        rng = np.random.default_rng(2)
        p = generate("consensus_ls", (6, 5, 4), 2)
        # some (x, y) with Ax + By = b exists: the lstsq residual is zero
        xy = np.linalg.lstsq(np.hstack([p.A, p.B]), p.b, rcond=None)[0]
        res = p.A @ xy[:6] + p.B @ xy[6:] - p.b
        assert np.linalg.norm(res) < 1e-10

    def test_degenerate_box_forces_value(self):
        p = generate("box_qp", 8, 1)
        pinned = FunctionDescriptor(
            "box", p.g.dim, lower=np.zeros(p.g.dim), upper=np.zeros(p.g.dim)
        )
        q = problem_from_dict(dict(p.to_dict(), g=pinned.to_dict()))
        # keep feasibility: y = 0 needs b in range(A), which holds (A is wide)
        ref = reference_solve(q, accuracy=1e-9)
        np.testing.assert_allclose(ref.y, np.zeros(p.g.dim), atol=1e-8)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            generate("lasso", (500, 5), 0)
        with pytest.raises(ValueError, match="unknown generator"):
            generate("mystery", (5, 5), 0)
        with pytest.raises(ValueError, match="lasso dims must be n x m"):
            generate("lasso", 10, 0)
        with pytest.raises(ValueError, match="box_qp dims must be n, got 10x5"):
            generate("box_qp", (10, 5), 0)


class TestKktResidual:
    def test_quadratic_block_is_exact_norm(self):
        p = generate("consensus_ls", (5, 4, 3), 11)
        rng = np.random.default_rng(0)
        x, y, gamma = rng.normal(size=5), rng.normal(size=4), rng.normal(size=3)
        res_x, _, _ = kkt_residual(p, x, y, gamma)
        expected = np.linalg.norm(p.f.Q @ x + p.f.q - p.A.T @ gamma)
        assert res_x == pytest.approx(expected)

    def test_l1_at_zero_inside_ball(self):
        desc = FunctionDescriptor("l1", 3, lam=1.0)
        assert desc.membership_distance(np.array([0.5, -0.9, 0.0]), np.zeros(3)) == 0.0
        assert desc.membership_distance(np.array([1.5, 0.0, 0.0]), np.zeros(3)) == pytest.approx(0.5)

    def test_reference_solution_is_near_kkt(self):
        p = generate("consensus_ls", (6, 5, 4), 3)
        ref = reference_solve(p)
        assert max(kkt_residual(p, ref.x, ref.y, ref.gamma)) <= 1e-10

    def test_primal_residual_component(self):
        p = generate("lasso", (6, 3), 1)
        x, y = np.zeros(6), np.ones(3)
        assert kkt_residual(p, x, y, np.zeros(3))[2] == pytest.approx(np.sqrt(3.0))


class TestReferenceSolve:
    def test_lasso_accuracy(self):
        p = generate("lasso", (10, 5), 7)
        ref = reference_solve(p, accuracy=1e-10)
        assert ref.kkt_residual <= 1e-10

    def test_box_qp_accuracy(self):
        p = generate("box_qp", 10, 5)
        ref = reference_solve(p, accuracy=1e-10)
        assert ref.kkt_residual <= 1e-10

    def test_accuracy_floor(self):
        p = generate("lasso", (4, 2), 0)
        with pytest.raises(ValueError, match="accuracy"):
            reference_solve(p, accuracy=1e-13)

    def test_infeasible_constraint_rejected(self, monkeypatch):
        # A = B = 0, b = 1: no (x, y) satisfies Ax + By = b; after least
        # squares on the singular KKT system, the feasibility check runs on [A B]
        p = problem_from_dict({
            "A": [[0.0]], "B": [[0.0]], "b": [1.0],
            "f": {"type": "quadratic", "Q": [[1.0]], "q": [0.0]},
            "g": {"type": "quadratic", "Q": [[1.0]], "q": [0.0]},
        })
        lstsq, shapes = np.linalg.lstsq, []
        monkeypatch.setattr(np.linalg, "lstsq", lambda M, *a, **k: shapes.append(M.shape) or lstsq(M, *a, **k))
        with pytest.raises(ValueError, match="infeasible"):
            reference_solve(p)
        assert shapes == [(3, 3), (1, 2)]

    @pytest.mark.parametrize("B,svd", [
        (np.eye(3), False),
        (-np.eye(3), False),
        (np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 2.0]]), False),  # orthogonal columns
        (np.array([[2.0, 0.0, 0.0], [0.0, 0.0, -3.0], [0.0, 0.5, 0.0]]), False),  # a scaled permutation
        (np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), True),  # orthogonal columns that span a plane
    ], ids=["I", "-I", "orthogonal", "permutation", "plane"])
    def test_feasibility_svd_runs_unless_b_spans(self, B, svd, monkeypatch):
        # B^T B diagonal with m nonzero entries: B reaches every b, and the
        # least-squares feasibility check on [A B] is skipped
        rng = np.random.default_rng(6)
        m, n_y = B.shape
        A = rng.normal(size=(m, 5))
        f = FunctionDescriptor("quadratic", 5, Q=np.eye(5), q=rng.normal(size=5))
        g = FunctionDescriptor("box", n_y, lower=-np.ones(n_y), upper=np.ones(n_y))
        p = ProblemSpec(f, g, A, B, A @ rng.normal(size=5) + B @ rng.uniform(-1.0, 1.0, n_y))
        lstsq, shapes = np.linalg.lstsq, []
        monkeypatch.setattr(np.linalg, "lstsq", lambda M, *a, **k: shapes.append(M.shape) or lstsq(M, *a, **k))
        assert reference_solve(p).kkt_residual <= 1e-10
        assert shapes == ([(m, 5 + n_y)] if svd else [])

    def test_deterministic(self):
        p = generate("box_qp", 10, 5)
        a, b = reference_solve(p), reference_solve(p)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.gamma, b.gamma)


class TestSubgradients:
    def test_quadratic_gradient(self):
        desc = FunctionDescriptor("quadratic", 2, Q=np.diag([2.0, 4.0]), q=np.array([1.0, 0.0]))
        np.testing.assert_allclose(
            subgradient(desc, np.array([1.0, 1.0])), [3.0, 4.0]
        )

    def test_l1_sign_pattern(self):
        desc = FunctionDescriptor("l1", 3, lam=1.0)
        np.testing.assert_allclose(
            subgradient(desc, np.array([2.0, 0.0, -1.0])), [1.0, 0.0, -1.0]
        )

    def test_box_interior_zero_and_outside_errors(self):
        desc = FunctionDescriptor("box", 2, lower=-np.ones(2), upper=np.ones(2))
        np.testing.assert_array_equal(subgradient(desc, np.zeros(2)), np.zeros(2))
        with pytest.raises(ValueError, match="outside"):
            subgradient(desc, np.array([2.0, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["zero", "quadratic", "l1", "box"]))
    def test_samples_pass_own_membership_check(self, seed, kind):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 6))
        if kind == "quadratic":
            L = rng.normal(size=(dim, dim))
            desc = FunctionDescriptor(kind, dim, Q=L @ L.T, q=rng.normal(size=dim))
        elif kind == "l1":
            desc = FunctionDescriptor(kind, dim, lam=float(rng.uniform(0.1, 2.0)))
        elif kind == "box":
            lo = rng.normal(size=dim)
            desc = FunctionDescriptor(kind, dim, lower=lo, upper=lo + rng.uniform(0, 2, dim))
        else:
            desc = FunctionDescriptor(kind, dim)
        x = rng.normal(size=dim)
        if kind == "box":
            x = np.clip(x, desc.lower, desc.upper)
        v = subgradient(desc, x, rng=rng)
        assert desc.membership_distance(v, x) <= 1e-9


def random_descriptor(rng, kind):
    """A random descriptor of ``kind`` (a quadratic Q is singular about half
    the time), a point x in its domain and an s in the domain of its
    conjugate's closed form."""
    dim = int(rng.integers(1, 7))
    x = rng.normal(size=dim)
    if kind == "quadratic":
        L = rng.normal(size=(dim, int(rng.integers(1, dim + 1)) if rng.random() < 0.5 else dim))
        desc = FunctionDescriptor(kind, dim, Q=L @ L.T, q=rng.normal(size=dim))
        s = desc.q + desc.Q @ rng.normal(size=dim)
    elif kind == "l1":
        desc = FunctionDescriptor(kind, dim, lam=float(rng.uniform(0.1, 2.0)))
        s = rng.uniform(-desc.lam, desc.lam, size=dim)
    elif kind == "box":
        lo = rng.normal(size=dim)
        desc = FunctionDescriptor(kind, dim, lower=lo, upper=lo + rng.uniform(0, 2, dim))
        x, s = np.clip(x, desc.lower, desc.upper), rng.normal(size=dim)
    else:
        desc, s = FunctionDescriptor(kind, dim), np.zeros(dim)
    return desc, x, s


def conjugate(desc, s):
    """f*(s) on the domain of its closed form, computed independently of
    ``fenchel_young``: a pseudo-inverse, or the support function of the box."""
    if desc.kind == "quadratic":
        return 0.5 * (s - desc.q) @ np.linalg.pinv(desc.Q) @ (s - desc.q)
    if desc.kind == "box":
        return sum(max(l * v, u * v) for l, u, v in zip(desc.lower, desc.upper, s))
    return 0.0


class TestFenchelYoung:
    """The exact eps-subdifferential check against its definition and
    against the sampled check it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["zero", "quadratic", "l1", "box"]), st.floats(0.0, 2.0))
    def test_exact_pass_implies_no_sampled_violation(self, seed, kind, eps_frac):
        rng = np.random.default_rng(seed)
        desc, x, s = random_descriptor(rng, kind)
        gap, off = desc.fenchel_young(s, x)
        assert off <= 1e-10 * (1.0 + np.linalg.norm(s))
        fx = float(desc.values(x)[0])
        expected = fx + conjugate(desc, s) - s @ x
        scale = abs(fx) + abs(conjugate(desc, s)) + abs(s @ x)
        assert gap == pytest.approx(expected, abs=1e-9 * (1.0 + scale))
        eps = eps_frac * max(gap, 0.0)
        checks = eps_subdifferential_checks(desc, s, x, eps, 1, "x")
        if all(c.ok for c in checks.values()):
            assert sampled_eps_check(desc, s, x, eps, rng)

    def test_l1_outside_conjugate_domain_fails_where_sampler_passes(self):
        # ||s||_inf = 0.101 > lam = 0.1: f*(s) = +inf, so s is in no
        # eps-subdifferential at x = 0, but 200 Gaussian samples miss it
        desc = FunctionDescriptor("l1", 50, lam=0.1)
        x, s, eps = np.zeros(50), np.zeros(50), 0.01
        s[4] = 0.101
        checks = eps_subdifferential_checks(desc, s, x, eps, 1, "x")
        assert checks["eps_subdiff_x"].ok
        assert not checks["eps_domain_x"].ok
        assert checks["eps_domain_x"].slack == pytest.approx(-0.001)
        assert all(sampled_eps_check(desc, s, x, eps, np.random.default_rng(seed)) for seed in range(200))

    def test_quadratic_off_range_fails_domain(self):
        # Q = diag(1, 0): s - q must lie in range(Q) = span(e_1)
        desc = FunctionDescriptor("quadratic", 2, Q=np.diag([1.0, 0.0]), q=np.array([0.5, -1.0]))
        x = np.array([0.3, 2.0])
        on = desc.Q @ x + desc.q
        assert all(c.ok for c in eps_subdifferential_checks(desc, on, x, 0.0, 1, "x").values())
        off = on + np.array([0.0, 1e-3])
        gap, dist = desc.fenchel_young(off, x)
        assert gap == pytest.approx(0.0, abs=1e-15) and dist == pytest.approx(1e-3)
        checks = eps_subdifferential_checks(desc, off, x, 0.0, 1, "x")
        assert checks["eps_subdiff_x"].ok and not checks["eps_domain_x"].ok

    @pytest.mark.parametrize("desc,s,x,dist", [
        (FunctionDescriptor("box", 2, lower=np.zeros(2), upper=np.ones(2)), [0.0, 0.0], [0.5, 1.2], 0.2),
        (FunctionDescriptor("zero", 2), [3e-3, -4e-3], [1.0, 2.0], 5e-3),
    ], ids=["box", "zero"])
    def test_outside_domain_fails(self, desc, s, x, dist):
        # a box point outside [l, u]; for the zero function, any s != 0
        checks = eps_subdifferential_checks(desc, np.array(s), np.array(x), 1.0, 1, "y")
        assert checks["eps_subdiff_y"].ok
        assert checks["eps_domain_y"].slack == pytest.approx(-dist)
        assert not checks["eps_domain_y"].ok


class TestDescriptorValues:
    def test_values_matches_value_rowwise(self):
        rng = np.random.default_rng(21)
        L = rng.normal(size=(3, 3))
        desc = FunctionDescriptor("quadratic", 3, Q=L @ L.T, q=rng.normal(size=3))
        X = rng.normal(size=(10, 3))
        np.testing.assert_allclose(desc.values(X), [0.5 * x @ desc.Q @ x + desc.q @ x for x in X])

    def test_box_values_infinite_outside(self):
        desc = FunctionDescriptor("box", 2, lower=np.zeros(2), upper=np.ones(2))
        vals = desc.values(np.array([[0.5, 0.5], [2.0, 0.5]]))
        assert vals[0] == 0.0 and vals[1] == np.inf

    def test_roundtrip_serialization(self):
        p = generate("box_qp", 6, 9)
        q = problem_from_dict(p.to_dict())
        np.testing.assert_array_equal(p.A, q.A)
        np.testing.assert_array_equal(p.g.lower, q.g.lower)
        assert q.f.kind == "quadratic"

    def test_zero_is_the_zero_quadratic(self):
        desc = FunctionDescriptor("zero", 3)
        assert desc.kind == "quadratic"
        np.testing.assert_array_equal(desc.Q, np.zeros((3, 3)))
        np.testing.assert_array_equal(desc.q, np.zeros(3))
        assert desc.to_dict() == {"type": "quadratic", "Q": np.zeros((3, 3)).tolist(), "q": [0.0] * 3}
        with pytest.raises(ValueError, match="dim"):
            FunctionDescriptor("zero", 0)

    def test_validation_catches_bad_descriptors(self):
        with pytest.raises(ValueError, match="lam"):
            FunctionDescriptor("l1", 2, lam=-1.0)
        with pytest.raises(ValueError, match="l <= u"):
            FunctionDescriptor("box", 2, lower=np.ones(2), upper=np.zeros(2))
        with pytest.raises(ValueError, match="PSD"):
            FunctionDescriptor("quadratic", 1, Q=-np.eye(1), q=np.zeros(1))

    @pytest.mark.parametrize("low,ok", [(-1.5e-10, True), (-3e-10, False), (-1.0, False)])
    def test_psd_verdict_tolerance(self, low, ok):
        # eigenvalues 4 and low, max |Q_ij| about 2: Q passes when low >= -1e-10 max(1, max |Q_ij|),
        # a bound tighter than the PsdOperator's -1e-10 max(1, 4)
        Q = 2.0 * np.ones((2, 2)) + 0.5 * low * np.array([[1.0, -1.0], [-1.0, 1.0]])
        if ok:
            assert FunctionDescriptor("quadratic", 2, Q=Q, q=np.zeros(2))._Q_operator.dim == 2
        else:
            with pytest.raises(ValueError, match="^quadratic Q must be PSD$"):
                FunctionDescriptor("quadratic", 2, Q=Q, q=np.zeros(2))

    def test_nearly_symmetric_q_is_held_once_symmetrized(self):
        # a Q symmetric only within 1e-10 is stored as the operator's 0.5 (Q + Q^T), so
        # memberships, the system test, the reference and the Fenchel-Young gap read one Q
        Q = [[2.0, 1.0], [1.0 + 1e-11, 3.0]]
        desc = FunctionDescriptor("quadratic", 2, Q=Q, q=np.zeros(2))
        assert desc.Q is desc._Q_operator.matrix and (desc.Q == desc.Q.T).all()
        np.testing.assert_array_equal(desc.Q, 0.5 * (np.array(Q) + np.array(Q).T))
        # an exactly symmetric Q, as every generator's, is kept as the same object
        for fn in (generate("box_qp", 6, 9).f, generate("consensus_ls", (5, 4, 3), 2).g):
            assert fn.kind == "quadratic" and fn.Q is fn._Q_operator.matrix


class TestPlainAdmm:
    def test_converges_on_lasso(self):
        p = generate("lasso", (8, 4), 5)
        x, y, gamma, res = plain_admm(p, beta=1.0, max_iters=200_000, accuracy=1e-10)
        assert res <= 1e-10
        assert max(kkt_residual(p, x, y, gamma)) <= 1e-10

    def test_trajectory_collection(self):
        p = generate("lasso", (6, 3), 2)
        traj = list(islice(plain_admm_iterates(p, beta=1.0), 10))
        assert len(traj) == 10
        assert traj[0][0].shape == (6,)

    @staticmethod
    def quadratic_g_singular_kkt():
        """Quadratic f and g under a repeated constraint row: [A B] has a
        dependent row, so the KKT matrix is singular, and g's y-system is
        factored and solved in every iteration."""
        rng = np.random.default_rng(4)
        A, B = rng.normal(size=(5, 6)), rng.normal(size=(5, 4))
        A[-1], B[-1] = A[0], B[0]
        L, G = rng.normal(size=(6, 6)), rng.normal(size=(4, 2))
        f = FunctionDescriptor("quadratic", 6, Q=L @ L.T + np.eye(6), q=rng.normal(size=6))
        g = FunctionDescriptor("quadratic", 4, Q=G @ G.T, q=rng.normal(size=4))
        return ProblemSpec(f, g, A, B, A @ rng.normal(size=6) + B @ rng.normal(size=4))

    @staticmethod
    def ill_conditioned_x_system():
        """A lasso whose x-system diag(1, ..., 1e8) + A^T A has condition
        number about 1e8, graded along the axes.  (Under a random rotation of
        Q any two backward-stable solvers differ by up to cond * eps: there
        LU and the factored solve are each about 3e-10 off the exact
        solution, so a 1e-12 comparison could not pass.)"""
        rng = np.random.default_rng(5)
        f = FunctionDescriptor("quadratic", 8, Q=np.diag(np.logspace(0, 8, 8)), q=rng.normal(size=8))
        A = rng.normal(size=(4, 8)) / 2.0
        return ProblemSpec(f, FunctionDescriptor("l1", 4, lam=0.1), A, -np.eye(4), np.zeros(4))

    def problems(self):
        return {
            "lasso": generate("lasso", (20, 10), 3),
            "box_qp": generate("box_qp", 20, 3),
            "quadratic_g_singular_kkt": self.quadratic_g_singular_kkt(),
            "cond_1e8": self.ill_conditioned_x_system(),
        }

    @pytest.mark.parametrize("name", ["lasso", "box_qp", "quadratic_g_singular_kkt", "cond_1e8"])
    def test_factored_iterates_match_per_iteration_solve(self, name):
        p = self.problems()[name]
        if name == "quadratic_g_singular_kkt":
            n_x, n_y, m = p.dims
            K = np.block([
                [p.f.Q, np.zeros((n_x, n_y)), -p.A.T], [np.zeros((n_y, n_x)), p.g.Q, -p.B.T],
                [p.A, p.B, np.zeros((m, m))],
            ])
            assert np.linalg.matrix_rank(K) < K.shape[0]
        if name == "cond_1e8":
            assert 1e7 < np.linalg.cond(p.f.Q + p.A.T @ p.A) < 1e9
        oracle = plain_admm_per_iteration_solve(p, 1.0, 100)
        for k, (ours, ref) in enumerate(zip(islice(plain_admm_iterates(p, beta=1.0), 100), oracle)):
            for u, v in zip(ours, ref):
                np.testing.assert_allclose(u, v, rtol=0.0, atol=1e-12, err_msg=f"iterate {k + 1}")

    def test_factored_solve_is_backward_stable(self):
        """The refinement step gives the factored solve LU's residual on a
        rotated system of condition 1e8, for a right-hand side along the top
        eigenvector, where the inverse alone leaves a residual ~1e-10."""
        rng = np.random.default_rng(5)
        for _ in range(4):
            U = np.linalg.qr(rng.normal(size=(8, 8)))[0]
            M = U @ np.diag(np.logspace(-8, 0, 8)) @ U.T
            M = 0.5 * (M + M.T)
            r = M @ U[:, -1]
            x = _factored_solver(M, "M")(r)
            assert np.linalg.norm(r - M @ x) <= 1e-15 * np.linalg.norm(M, 2) * np.linalg.norm(x)

    @staticmethod
    def singular_block(block, q):
        """One block's function is 0.5 Q u^2 + q u with Q = 0 and its column
        of [A B] is zero, so its system Q + beta N^T N is singular."""
        flat = FunctionDescriptor("quadratic", 1, Q=np.zeros((1, 1)), q=np.full(1, q))
        strong = FunctionDescriptor("quadratic", 1, Q=np.eye(1), q=np.ones(1))
        zero, one, b = np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1)
        return ProblemSpec(flat, strong, zero, one, b) if block == "x" else ProblemSpec(strong, flat, one, zero, b)

    @pytest.mark.parametrize("block,system", [
        ("x", "x-system Q_f + beta A^T A"), ("y", "y-system Q_g + beta B^T B"),
    ])
    def test_singular_system_is_named(self, block, system):
        # a linear function (q = 1) is unbounded below along the zero column
        fn, N = ("f", "A") if block == "x" else ("g", "B")
        cause = f"{fn} is unbounded below along a direction d with Q_{fn} d = 0, {N} d = 0 and q_{fn}^T d != 0"
        with pytest.raises(ValueError, match=f"^{re.escape(f'plain ADMM {system} is singular: {cause}')}$"):
            next(plain_admm_iterates(self.singular_block(block, 1.0)))

    @pytest.mark.parametrize("block,system", [
        ("x", "x-system Q_f + beta A^T A"), ("y", "y-system Q_g + beta B^T B"),
    ])
    def test_singular_system_names_a_minimizer_that_is_not_unique(self, block, system):
        # a zero function (q = 0) is constant along the zero column
        fn, N = ("f", "A") if block == "x" else ("g", "B")
        cause = f"the minimizer of {fn} is not unique along a direction d with Q_{fn} d = 0, {N} d = 0 and q_{fn}^T d = 0"
        with pytest.raises(ValueError, match=f"^{re.escape(f'plain ADMM {system} is singular: {cause}')}$"):
            next(plain_admm_iterates(self.singular_block(block, 0.0)))

    @pytest.mark.parametrize("name,systems", [("lasso", 1), ("box_qp", 1), ("quadratic_g_singular_kkt", 2)])
    def test_each_block_system_factored_once(self, name, systems, monkeypatch):
        """One LU solve per block system before the first iterate, then no
        LAPACK call in the loop; the reference solve of a lasso or box QP,
        whose B = -I or I reaches every b, makes no least-squares
        feasibility check, factors its x-system once and solves one KKT
        system per polished active set (on this lasso, the set held at
        k = 5 and two corrections of it; on this box QP, the first set
        held)."""
        p, calls = self.problems()[name], []
        for fn_name in ("solve", "lstsq", "eigh", "eigvalsh", "inv"):
            fn = getattr(np.linalg, fn_name)
            monkeypatch.setattr(
                np.linalg, fn_name, lambda *a, _n=fn_name, _fn=fn, **k: calls.append(_n) or _fn(*a, **k)
            )
        iterates = plain_admm_iterates(p, beta=1.0)
        next(iterates)
        assert calls == ["solve"] * systems
        del calls[:]
        for _ in islice(iterates, 100):
            pass
        assert calls == []
        if name != "quadratic_g_singular_kkt":  # a direct KKT solve handles quadratic g
            reference_solve(p)
            polishes = {"lasso": 3, "box_qp": 1}[name]
            assert calls == ["solve"] + ["solve"] * polishes


def unpolished_stop(problem, accuracy=1e-10):
    """The first plain ADMM iterate whose KKT residual is at most
    ``accuracy``: where the loop stops without polishing."""
    for x, y, gamma in plain_admm_iterates(problem, beta=1.0):
        if max(kkt_residual(problem, x, y, gamma)) <= accuracy:
            return x, y, gamma


def full_kkt_point(problem, active):
    """The polished point of ``active`` from the KKT system in (x, y, gamma)
    that keeps an identity row per pinned y coordinate: the reference the
    reduced system of :func:`_kkt_solve` is tested against."""
    g, A, B = problem.g, problem.A, problem.B
    n_x, n_y, m = problem.dims
    K = np.zeros((n_x + n_y + m,) * 2)
    xs, ys, gs = slice(0, n_x), slice(n_x, n_x + n_y), slice(n_x + n_y, None)
    K[xs, xs], K[xs, gs], K[gs, xs], K[gs, ys] = problem.f.Q, -A.T, A, B
    pinned = active == 0 if g.kind == "l1" else active != 0
    rows = np.arange(n_x, n_x + n_y)
    K[rows[pinned], rows[pinned]] = 1.0
    K[rows[~pinned], gs] = -B.T[~pinned]
    y_rhs = -g.lam * active if g.kind == "l1" else np.where(active < 0, g.lower, g.upper) * pinned
    return _kkt_point(problem, np.linalg.solve(K, np.concatenate([-problem.f.q, y_rhs, problem.b])))


POLISH_SEEDS = pytest.mark.parametrize("seed", [*range(8), 7919])
POLISH_SHAPES = pytest.mark.parametrize("kind,dims", [
    ("lasso", (10, 5)), ("box_qp", 40), ("lasso", (200, 100)), ("box_qp", 200),
], ids=["lasso10x5", "box_qp40", "lasso200x100", "box_qp200"])
# KKT solves per reference at seeds 0-7 and 7919 when a failed polish was not
# corrected: on these shapes a correction saves iterates and costs no solve
UNCORRECTED_SOLVES = {
    "lasso": {(10, 5): (2, 1, 2, 2, 2, 1, 1, 1, 1), (200, 100): (1, 3, 2, 1, 1, 2, 1, 1, 2)},
    "box_qp": {40: (1, 2, 1, 1, 1, 1, 1, 1, 1), 200: (1, 1, 2, 1, 1, 2, 1, 2, 2)},
}


class TestPolish:
    """The direct KKT solves of the reference: the polished tail of an l1 or
    box g, and the LU solve of a quadratic/quadratic problem."""

    @POLISH_SEEDS
    @POLISH_SHAPES
    def test_polished_reference_is_the_admm_point(self, kind, dims, seed, monkeypatch):
        p, solves = generate(kind, dims, seed), []
        monkeypatch.setattr(vmpadmm.problems, "_kkt_solve", lambda *a, _s=_kkt_solve: solves.append(1) or _s(*a))
        ref = reference_solve(p)
        assert ref.kkt_residual == max(kkt_residual(p, ref.x, ref.y, ref.gamma)) <= 1e-10
        assert len(solves) <= UNCORRECTED_SOLVES[kind][dims][min(seed, 8)]
        for ours, admm in zip((ref.x, ref.y, ref.gamma), unpolished_stop(p)):
            np.testing.assert_allclose(ours, admm, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("kind,dims", [("lasso", (10, 5)), ("box_qp", 40)], ids=["lasso10x5", "box_qp40"])
    def test_wrong_guess_is_rejected(self, kind, dims, monkeypatch):
        """One sign flipped (l1) or one bound freed (box) on the coordinate
        with the largest multiplier: the KKT check rejects the solution, and
        a polish that only ever sees such guesses returns the ADMM point."""
        p = generate(kind, dims, 1)
        ref = reference_solve(p)
        active = _active_set(p.g, ref.y)
        at = int(np.argmax(np.where(active != 0, np.abs(p.B.T @ ref.gamma), -1.0)))
        assert active[at] != 0
        tried, solve = [], _kkt_solve

        def wrong_solve(problem, guess):
            guess = guess.copy()
            guess[at] = -active[at] if kind == "lasso" else 0
            tried.append(solve(problem, guess)[2])
            return None, None, tried[-1]

        monkeypatch.setattr(vmpadmm.problems, "_kkt_solve", wrong_solve)
        assert wrong_solve(p, active)[2] is None or tried[0].kkt_residual > 1e-10
        got = reference_solve(p)
        assert len(tried) > 1 and all(pt is None or pt.kkt_residual > 1e-10 for pt in tried)
        for ours, admm in zip((got.x, got.y, got.gamma), unpolished_stop(p)):
            np.testing.assert_array_equal(ours, admm)

    @POLISH_SEEDS
    @POLISH_SHAPES
    def test_reduced_system_gives_the_full_systems_point(self, kind, dims, seed):
        # pinned coordinates moved into the right-hand side, not kept as rows
        p = generate(kind, dims, seed)
        active = _active_set(p.g, reference_solve(p).y)
        K, rhs, reduced = _kkt_solve(p, active)
        n_pinned = np.count_nonzero(active == 0 if kind == "lasso" else active != 0)
        assert K.shape == (sum(p.dims) - n_pinned,) * 2 == (len(rhs),) * 2
        full = full_kkt_point(p, active)
        for u, v in zip((reduced.x, reduced.y, reduced.gamma), (full.x, full.y, full.gamma)):
            np.testing.assert_allclose(u, v, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind,dims,seed", [("lasso", (10, 5), 0), ("box_qp", 40, 1)], ids=["lasso10x5", "box_qp40"])
    def test_wrong_correction_is_rejected(self, kind, dims, seed, monkeypatch):
        """Each correction with one more coordinate set wrong (the one with
        the largest multiplier, as in :meth:`test_wrong_guess_is_rejected`):
        the KKT check rejects its point, and the reference still meets the
        accuracy, at a set that ADMM held or at the ADMM point."""
        p = generate(kind, dims, seed)
        ref = reference_solve(p)
        truth = _active_set(p.g, ref.y)
        at = int(np.argmax(np.where(truth != 0, np.abs(p.B.T @ ref.gamma), -1.0)))
        assert truth[at] != 0
        sabotaged, points, correct, solve = [], [], vmpadmm.problems._corrected_active_set, _kkt_solve

        def wrong_correction(problem, active, point):
            guess = correct(problem, active, point)
            guess[at] = -truth[at] if kind == "lasso" else 0
            sabotaged.append(guess.tobytes())
            return guess

        def recorded_solve(problem, active):
            points.append((active.tobytes(), solve(problem, active)[2]))
            return None, None, points[-1][1]

        monkeypatch.setattr(vmpadmm.problems, "_corrected_active_set", wrong_correction)
        monkeypatch.setattr(vmpadmm.problems, "_kkt_solve", recorded_solve)
        got = reference_solve(p)
        wrong = [pt for key, pt in points if key in sabotaged]
        assert wrong and all(pt is None or pt.kkt_residual > 1e-10 for pt in wrong)
        assert got.kkt_residual <= 1e-10
        for ours, want in zip((got.x, got.y, got.gamma), (ref.x, ref.y, ref.gamma)):
            np.testing.assert_allclose(ours, want, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("dims", [(6, 5, 4), (20, 15, 10), (200, 150, 100)])
    def test_lu_point_is_the_lstsq_point(self, dims):
        p = generate("consensus_ls", dims, 1)
        K, rhs, lu = _kkt_solve(p)
        ls = _kkt_point(p, np.linalg.lstsq(K, rhs, rcond=None)[0])
        for u, v in zip((lu.x, lu.y, lu.gamma), (ls.x, ls.y, ls.gamma)):
            np.testing.assert_allclose(u, v, rtol=0.0, atol=1e-12)
        ref = reference_solve(p)
        np.testing.assert_array_equal(np.r_[ref.x, ref.y, ref.gamma], np.r_[lu.x, lu.y, lu.gamma])

    @pytest.mark.parametrize("problem", [
        problem_from_dict(ZERO_F_PROBLEM), TestPlainAdmm.quadratic_g_singular_kkt(),
    ], ids=["zero_f", "quadratic_g_singular_kkt"])
    def test_singular_kkt_falls_back_to_lstsq(self, problem, monkeypatch):
        """LU finds the KKT system singular; least squares on the same
        matrix gives the reference, and plain ADMM never runs."""
        assert _kkt_solve(problem)[2] is None
        lstsq, shapes = np.linalg.lstsq, []
        monkeypatch.setattr(np.linalg, "lstsq", lambda K, *a, **k: shapes.append(K.shape) or lstsq(K, *a, **k))
        monkeypatch.setattr(vmpadmm.problems, "plain_admm", None)
        ref = reference_solve(problem)
        assert ref.kkt_residual <= 1e-10
        assert shapes == [(sum(problem.dims),) * 2]

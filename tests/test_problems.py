import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmpadmm.problems import (
    FunctionDescriptor,
    generate,
    kkt_residual,
    plain_admm,
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

    def test_infeasible_constraint_rejected(self):
        # A = B = 0, b = 1: no (x, y) satisfies Ax + By = b
        p = problem_from_dict({
            "A": [[0.0]], "B": [[0.0]], "b": [1.0],
            "f": {"type": "quadratic", "Q": [[1.0]], "q": [0.0]},
            "g": {"type": "quadratic", "Q": [[1.0]], "q": [0.0]},
        })
        with pytest.raises(ValueError, match="infeasible"):
            reference_solve(p)

    def test_deterministic(self):
        p = generate("box_qp", 10, 5)
        a, b = reference_solve(p), reference_solve(p)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.gamma, b.gamma)


class TestSubgradients:
    def test_quadratic_gradient(self):
        desc = FunctionDescriptor("quadratic", 2, Q=np.diag([2.0, 4.0]), q=np.array([1.0, 0.0]))
        np.testing.assert_allclose(
            desc.subgradient(np.array([1.0, 1.0])), [3.0, 4.0]
        )

    def test_l1_sign_pattern(self):
        desc = FunctionDescriptor("l1", 3, lam=1.0)
        np.testing.assert_allclose(
            desc.subgradient(np.array([2.0, 0.0, -1.0])), [1.0, 0.0, -1.0]
        )

    def test_box_interior_zero_and_outside_errors(self):
        desc = FunctionDescriptor("box", 2, lower=-np.ones(2), upper=np.ones(2))
        np.testing.assert_array_equal(desc.subgradient(np.zeros(2)), np.zeros(2))
        with pytest.raises(ValueError, match="outside"):
            desc.subgradient(np.array([2.0, 0.0]))

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
        v = desc.subgradient(x, rng=rng)
        assert desc.membership_distance(v, x) <= 1e-9


class TestDescriptorValues:
    def test_values_matches_value_rowwise(self):
        rng = np.random.default_rng(21)
        L = rng.normal(size=(3, 3))
        desc = FunctionDescriptor("quadratic", 3, Q=L @ L.T, q=rng.normal(size=3))
        X = rng.normal(size=(10, 3))
        np.testing.assert_allclose(desc.values(X), [desc.value(x) for x in X])

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

    def test_validation_catches_bad_descriptors(self):
        with pytest.raises(ValueError, match="lam"):
            FunctionDescriptor("l1", 2, lam=-1.0)
        with pytest.raises(ValueError, match="l <= u"):
            FunctionDescriptor("box", 2, lower=np.ones(2), upper=np.zeros(2))
        with pytest.raises(ValueError, match="PSD"):
            FunctionDescriptor("quadratic", 1, Q=-np.eye(1), q=np.zeros(1))


class TestPlainAdmm:
    def test_converges_on_lasso(self):
        p = generate("lasso", (8, 4), 5)
        x, y, gamma, res = plain_admm(p, beta=1.0, max_iters=200_000, accuracy=1e-10)
        assert res <= 1e-10
        assert max(kkt_residual(p, x, y, gamma)) <= 1e-10

    def test_trajectory_collection(self):
        p = generate("lasso", (6, 3), 2)
        *_, traj = plain_admm(p, beta=1.0, max_iters=10, accuracy=0.0, collect=10)
        assert len(traj) == 10
        assert traj[0][0].shape == (6,)

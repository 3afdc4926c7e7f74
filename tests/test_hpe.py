import dataclasses

import numpy as np
import pytest
from helpers import identity

from vmpadmm.hpe import (
    BoundCheck,
    HpeIterate,
    HpeState,
    RateBounds,
    check_error_condition,
    row_of,
)
from vmpadmm.linalg import PsdOperator, block_diag


def affine_map(rng, dim):
    """Strongly monotone affine map T(z) = G z - c with its zero z*."""
    L = rng.normal(size=(dim, dim))
    G = L @ L.T + np.eye(dim)
    c = rng.normal(size=dim)
    return G, c, np.linalg.solve(G, c)


def one_row(k, z, z_tilde, r, preimage, eta, M):
    """The iterate k as a block of one row."""
    return HpeIterate(np.array([k]), *(np.asarray(v, dtype=float)[None] for v in (z, z_tilde, r, preimage, eta)), M)


def exact_prox_steps(G, c, M, z0, steps, sigma=0.0, bounds=None):
    """Exact proximal-point iterations: M(z_{k-1} - z_k) = T(z_k), z~ = z.

    Yields (state, iterate) after each accepted step, each a block of one
    row, so certificates can be read at every k.
    """
    bounds = RateBounds(d0=10.0, sigma=sigma, C_S=0.0, C_P=1.0) if bounds is None else bounds
    state = HpeState(z0, bounds)
    z = z0.copy()
    for k in range(1, steps + 1):
        z_new = np.linalg.solve(M.matrix + G, M.matrix @ z + c)
        pre = z - z_new
        it = one_row(k=k, z=z_new, z_tilde=z_new, r=M.apply(pre), preimage=pre, eta=0.0, M=M)
        check = state.add_iterate(it)
        assert check.ok
        z = z_new
        yield state, it


def exact_prox_run(G, c, M, z0, steps, sigma=0.0):
    """The state after ``steps`` exact proximal-point iterations."""
    for state, _ in exact_prox_steps(G, c, M, z0, steps, sigma):
        pass
    return state


def eps_direct(iterates):
    """O(k) recomputation of eps^a_k, independent of the accumulators."""
    k = len(iterates)
    zt_a = sum(it.z_tilde for it in iterates) / k
    return sum(float(np.vdot(it.r, it.z_tilde - zt_a)) for it in iterates) / k


class TestErrorCondition:
    def test_exact_resolvent_passes_with_zero_sigma(self):
        rng = np.random.default_rng(0)
        G, c, _ = affine_map(rng, 4)
        M = identity(4, 2.0)
        exact_prox_run(G, c, M, rng.normal(size=4), steps=20, sigma=0.0)

    def test_perturbed_step_fails(self):
        M = identity(2, 1.0)
        z_prev = np.array([1.0, 1.0])
        z = np.array([0.5, 0.5])
        z_tilde = z + np.array([10.0, 0.0])  # far from both endpoints
        it = one_row(1, z, z_tilde, M.apply(z_prev - z), z_prev - z, eta=0.0, M=M)
        check, _ = check_error_condition(it, sigma=0.5, prev_eta=0.0)
        assert check.name == "hpe" and check.k == 1
        assert not check.ok

    def test_eta_carries_between_iterations(self):
        # lhs uses eta_k, rhs uses eta_{k-1}: a large eta_0 can rescue step 1
        M = identity(1, 1.0)
        it = one_row(
            1, np.array([0.0]), np.array([0.6]), np.array([1.0]), np.array([1.0]), eta=0.0, M=M
        )
        check, gap = check_error_condition(it, sigma=0.1, prev_eta=0.0)
        assert not check.ok
        assert gap == pytest.approx(0.16)  # ||z_prev - z~||^2 = (1 - 0.6)^2
        check, _ = check_error_condition(it, sigma=0.1, prev_eta=10.0)
        assert check.ok
        assert check.rhs == pytest.approx(0.1 * 0.16 + 10.0)

    def test_slack_tolerance_band(self):
        check, _ = check_error_condition(
            one_row(
                1, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), eta=1e-9, M=identity(1)
            ),
            sigma=0.5,
            prev_eta=0.0,
        )
        assert check.slack < 0.0 and check.ok  # inside the roundoff band
        assert not dataclasses.replace(check, lhs=1e-7).ok  # outside it


class TestStateValidation:
    def setup_method(self):
        self.M = identity(2, 1.0)
        self.bounds = RateBounds(d0=1.0, sigma=0.5, C_S=0.0, C_P=1.0)
        self.state = HpeState(np.zeros(2), self.bounds)

    def _iterate(self, k, eta=0.0, r=None):
        pre = np.ones(2)
        return one_row(
            k, -pre * k, -pre * k + pre, self.M.apply(pre) if r is None else r, pre, eta, self.M
        )

    def test_noncontiguous_index_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            self.state.add_iterate(self._iterate(2))

    def test_vector_iterate_rejected(self):
        # an iterate is a block of rows: vectors fail fast, naming the shape
        pre = np.ones(2)
        with pytest.raises(ValueError, match=r"^iterate vectors must be stacked rows of shape \(rows, 2\)"):
            HpeIterate(1, -pre, np.zeros(2), self.M.apply(pre), pre, 0.0, self.M)

    def test_scalar_index_rejected(self):
        # k is the column of the iterations, one entry per row
        it = self._iterate(1)
        with pytest.raises(ValueError, match=r"^iterate index k must be a column of shape \(1,\), got \(\)$"):
            dataclasses.replace(it, k=1)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            self.state.add_iterate(self._iterate(1, eta=-1e-3))

    def test_mismatched_residual_rejected(self):
        with pytest.raises(ValueError, match="does not equal"):
            self.state.add_iterate(self._iterate(1, r=np.array([5.0, 5.0])))

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            RateBounds(d0=1.0, sigma=1.0, C_S=0.0, C_P=1.0)

    def test_negative_eta0_rejected(self):
        with pytest.raises(ValueError, match="eta0"):
            RateBounds(d0=1.0, sigma=0.5, C_S=0.0, C_P=1.0, eta0=-1e-3)


class TestRowOf:
    """A block's rows are kept by ``row_of``: each a copy, k included."""

    def block(self):
        rng = np.random.default_rng(5)
        z, z_tilde, pre = (rng.normal(size=(3, 2)) for _ in range(3))
        M = identity(2).affine(0.0, np.array([1.0, 2.0, 0.5]))  # row i acted on by its own factor
        return HpeIterate(np.array([1, 2, 3]), z, z_tilde, M.apply(pre), pre, np.array([0.1, 0.2, 0.3]), M)

    def assert_row(self, row, blk, i):
        rows = (v[i : i + 1] for v in (blk.z, blk.z_tilde, blk.r, blk.preimage, blk.eta))
        by_hand = HpeIterate(np.array([blk.k[i]]), *rows, blk.M.row(slice(i, i + 1)))
        for name in ("k", "z", "z_tilde", "r", "preimage", "eta"):
            got, want = getattr(row, name), getattr(by_hand, name)
            assert np.array_equal(got, want) and not np.shares_memory(got, getattr(blk, name))
        assert np.array_equal(row.M.factors, by_hand.M.factors) and row.M.base is blk.M.base
        assert not np.shares_memory(row.M.factors, blk.M.factors)

    def test_row_of_a_block_is_the_row_built_by_hand(self):
        blk = self.block()
        row = row_of(blk, slice(1, 2))
        assert row.k.tolist() == [2]
        self.assert_row(row, blk, 1)

    def test_a_shared_operator_is_itself(self):
        op = PsdOperator(np.eye(2))
        assert row_of(op, slice(0, 1)) is op and row_of(op, 1) is op

    def test_block_diag_with_a_shared_block(self):
        views = identity(2).affine(0.0, np.array([1.0, 2.0, 0.5]))
        shared = PsdOperator(np.eye(3))
        row = row_of(block_diag([views, shared]), slice(1, 2))
        assert row.blocks[1] is shared and row.blocks[0].base is views.base
        assert row.blocks[0].factors.tolist() == [2.0]
        np.testing.assert_array_equal(row.apply(np.ones((1, 5))), [[2.0, 2.0, 1.0, 1.0, 1.0]])

    def test_keep_holds_the_row_alone(self):
        blk = self.block()
        state = HpeState(np.zeros(2), RateBounds(d0=1.0, sigma=0.5, C_S=0.0, C_P=1.0))
        state.add_iterate(blk)
        state.keep(2)
        assert state.k == 2 and state.last.k.tolist() == [2]
        self.assert_row(state.last, blk, 1)

    def test_keep_cuts_the_running_sums(self):
        """After keep(2) the certificates are those of a state that absorbed
        rows 1-2 only, bit for bit, and no array the state holds shares
        memory with one it held for the whole block."""
        blk = self.block()
        bounds = RateBounds(d0=1.0, sigma=0.5, C_S=0.0, C_P=1.0)
        state, fresh = HpeState(np.zeros(2), bounds), HpeState(np.zeros(2), bounds)
        state.add_iterate(blk)
        held = [v for name, v in vars(state).items() if isinstance(v, np.ndarray) and name != "z0"]
        state.keep(2)
        fresh.add_iterate(row_of(blk, slice(0, 2)))
        z = np.random.default_rng(11).normal(size=2)
        for got, want in zip(state.ergodic_point(), fresh.ergodic_point()):
            assert np.array_equal(got, want[-1:])
        got, want = state.fejer_check(z), fresh.fejer_check(z)
        assert np.array_equal(got.lhs, want.lhs[-1:]) and np.array_equal(got.ok, want.ok[-1:])
        kept = [v for name, v in vars(state).items() if isinstance(v, np.ndarray) and name != "z0"]
        assert held and kept
        assert not any(np.shares_memory(a, b) for a in kept for b in held)


class TestProximalPointReduction:
    def test_distances_nonincreasing_and_certificates_hold(self):
        rng = np.random.default_rng(7)
        G, c, z_star = affine_map(rng, 5)
        M = identity(5, 3.0)
        z0 = z_star + rng.normal(size=5)
        d0 = M.seminorm(z0 - z_star)
        bounds = RateBounds(d0=d0, sigma=0.0, C_S=0.0, C_P=1.0)
        dists, best = [], np.inf
        for state, it in exact_prox_steps(G, c, M, z0, steps=60, bounds=bounds):
            k = it.k
            dists.append(M.seminorm(it.z - z_star))
            # pointwise best ||r_i||*_M, through the tracked preimage
            best = min(best, M.seminorm(it.preimage))
            assert best <= bounds.pointwise_rhs(k)
            _, r_a, eps_a = state.ergodic_point()
            assert M.dual_seminorm_general(r_a) <= bounds.ergodic_res_rhs(k)
            assert BoundCheck("ergodic_eps", k, eps_a, bounds.ergodic_eps_rhs(k)).ok
            assert BoundCheck(
                "eps_nonneg", k, -eps_a, 0.0, tol_abs=1e-10 * (1.0 + abs(eps_a)), tol_rel=0.0
            ).ok
            fejer = state.fejer_check(z_star)
            assert fejer.ok
            assert fejer.rhs == bounds.C_P * (M.seminorm(z_star - z0) ** 2 + bounds.eta0)
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))

    def test_certificates_need_an_iterate(self):
        state = HpeState(np.zeros(2), RateBounds(1.0, 0.5, 0.0, 1.0))
        with pytest.raises(ValueError, match="no iterate"):
            state.ergodic_point()


class TestErgodicAccumulators:
    def test_accumulator_matches_direct_eps(self):
        rng = np.random.default_rng(11)
        G, c, _ = affine_map(rng, 4)
        history = []
        for state, it in exact_prox_steps(G, c, identity(4, 1.0), rng.normal(size=4), steps=25):
            history.append(it)
            _, _, eps_a = state.ergodic_point()
            assert eps_a == pytest.approx(eps_direct(history), abs=1e-12)

    def test_eps_nonnegative_for_monotone_map(self):
        rng = np.random.default_rng(13)
        G, c, _ = affine_map(rng, 4)
        state = exact_prox_run(G, c, identity(4, 1.0), rng.normal(size=4), steps=30)
        _, _, eps_a = state.ergodic_point()
        assert eps_a >= -1e-12


class TestRateBounds:
    def test_constant_formulas(self):
        b = RateBounds(d0=2.0, sigma=0.5, C_S=0.0, C_P=1.0)
        # E = (1+1)(1 + 0) + 0 = 2; E_hat = 2*1*1*(0.5/0.5 + 4) = 10
        assert b.E == pytest.approx(2.0)
        assert b.E_hat == pytest.approx(10.0)
        assert b.pointwise_rhs(4) == pytest.approx(np.sqrt(2 * 1.5 * 4.0 / (0.5 * 4)))
        assert b.ergodic_res_rhs(2) == pytest.approx(2.0 * 2.0 / 2.0)
        assert b.ergodic_eps_rhs(5) == pytest.approx(10.0 * 4.0 / 5.0)

    def test_drift_inflates_constants(self):
        flat = RateBounds(d0=1.0, sigma=0.3, C_S=0.0, C_P=1.0)
        drifted = RateBounds(d0=1.0, sigma=0.3, C_S=0.5, C_P=1.5)
        assert drifted.E > flat.E
        assert drifted.E_hat > flat.E_hat

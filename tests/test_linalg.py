import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import identity, zero_operator

from vmpadmm.linalg import (
    BlockDiagOperator,
    PsdOperator,
    affine_leq,
    block_diag,
    operator_leq,
)


def random_psd(rng, dim, rank=None):
    rank = dim if rank is None else rank
    G = rng.normal(size=(dim, rank))
    return PsdOperator(G @ G.T)


def rng_and_dim(seed):
    rng = np.random.default_rng(seed)
    return rng, int(rng.integers(1, 9))


class TestPsdOperator:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            PsdOperator(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            PsdOperator(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            PsdOperator(np.diag([1.0, -1.0]))

    def test_definite_flag_rejects_singular(self):
        with pytest.raises(ValueError, match="definite"):
            PsdOperator(np.diag([1.0, 0.0]), definite=True)

    def test_seminorm_identity(self):
        M = identity(3, 2.0)
        z = np.array([1.0, 2.0, 2.0])
        assert M.seminorm(z) == pytest.approx(np.sqrt(2.0) * 3.0)

    def test_zero_operator_seminorm(self):
        M = zero_operator(4)
        assert M.seminorm(np.ones(4)) == 0.0

    @pytest.mark.parametrize("matrix", [np.zeros((4, 4)), -np.zeros((4, 4))], ids=["zeros", "negative_zeros"])
    def test_zero_matrix_applies_as_its_product(self, matrix):
        # an all-zero matrix forms no product, and gives the product's bits
        # (sign bits included) for negative and -0.0 entries, also through the
        # scaled and stacked views, which apply their base
        M = PsdOperator(matrix)
        z = np.array([-1.5, -0.0, 0.0, 2.0])
        Z = np.array([z, -z, np.full(4, -0.0)])
        f = np.array([1.0, 0.5, 3.0])
        for got, want in ((M.apply(z), matrix @ z), (M.apply(Z), Z @ matrix.T),
                          (M.scaled(2.0).apply(z), 2.0 * (matrix @ z)),
                          (M.affine(0.0, f).apply(Z), f[:, None] * (Z @ matrix.T))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_inverse(self):
        rng = np.random.default_rng(0)
        M = random_psd(rng, 5)
        inv = M.inverse()
        np.testing.assert_allclose(inv.matrix @ M.matrix, np.eye(5), atol=1e-10)

    def test_inverse_rejects_singular(self):
        with pytest.raises(ValueError, match="ill-conditioned"):
            PsdOperator(np.diag([1.0, 0.0])).inverse()

    def test_dual_seminorm_off_range_is_inf(self):
        M = PsdOperator(np.diag([1.0, 0.0]))
        assert M.dual_seminorm_general(np.array([0.0, 1.0])) == np.inf
        assert M.dual_seminorm_general(np.array([1.0, 0.0])) == 1.0

    def test_dual_seminorm_zero_vector(self):
        M = PsdOperator(np.diag([1.0, 0.0]))
        assert M.dual_seminorm_general(np.zeros(2)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            identity(3).seminorm(np.ones(4))

    def test_seminorm_from_formed_product_keeps_the_psd_guard(self):
        M = PsdOperator(np.diag([2.0, 0.0]))
        z = np.array([3.0, 4.0])
        assert M._seminorm_from(z, M.apply(z)) == M.seminorm(z)
        with pytest.raises(ValueError, match="negative quadratic form"):
            M._seminorm_from(z, np.diag([2.0, -2.0]) @ z)  # a product with an indefinite matrix
        assert M._seminorm_from(z, np.array([0.0, -1e-12])) == 0.0  # roundoff-sized: clipped to 0


class TestDualNormIdentity:
    """||Mw||*_M == ||w||_M on range(M), full-rank and rank-deficient."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.booleans())
    def test_identity(self, seed, deficient):
        rng, dim = rng_and_dim(seed)
        rank = max(1, dim // 2) if deficient else dim
        M = random_psd(rng, dim, rank)
        w = rng.normal(size=dim)
        lhs = M.dual_seminorm_general(M.apply(w))
        rhs = M.seminorm(w)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + rhs)

    def test_preimage_path_matches(self):
        rng = np.random.default_rng(3)
        M = random_psd(rng, 6, 3)
        w = rng.normal(size=6)
        # the solver takes the dual norm of r = M w as the seminorm of its
        # preimage w; the general (pseudo-inverse) path must agree
        assert M.dual_seminorm_general(M.apply(w)) == pytest.approx(M.seminorm(w))


class TestSeminormProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_cauchy_young(self, seed):
        rng, dim = rng_and_dim(seed)
        M = random_psd(rng, dim)
        z, w = rng.normal(size=dim), rng.normal(size=dim)
        scale = max(1.0, M.seminorm(z) * M.seminorm(w))
        assert abs(float(z @ M.apply(w))) <= M.seminorm(z) * M.seminorm(w) + 1e-10 * scale

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_triangle_square(self, seed):
        rng, dim = rng_and_dim(seed)
        M = random_psd(rng, dim, max(1, dim - 1))
        z, w = rng.normal(size=dim), rng.normal(size=dim)
        lhs = M.seminorm(z + w) ** 2
        rhs = 2.0 * M.seminorm(z) ** 2 + 2.0 * M.seminorm(w) ** 2
        assert lhs <= rhs * (1.0 + 1e-10) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.floats(-10.0, 10.0))
    def test_scaling(self, seed, alpha):
        rng, dim = rng_and_dim(seed)
        M = random_psd(rng, dim)
        z = rng.normal(size=dim)
        assert M.seminorm(alpha * z) == pytest.approx(abs(alpha) * M.seminorm(z), abs=1e-12)


class TestBlockDiag:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_block_decomposition(self, seed):
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(1, 5)) for _ in range(3)]
        blocks = [random_psd(rng, d) for d in dims]
        M = block_diag(blocks)
        z = rng.normal(size=sum(dims))
        parts = M.split(z)
        total = sum(b.seminorm(p) ** 2 for b, p in zip(blocks, parts))
        assert abs(M.seminorm(z) ** 2 - total) <= 1e-12 * (1.0 + total)

    def test_matrix_assembly(self):
        M = block_diag([identity(1, 2.0), identity(2, 3.0)])
        assert M.offsets == (0, 1, 3)
        # column j of the assembled matrix is M applied to e_j
        np.testing.assert_array_equal(np.column_stack([M.apply(e) for e in np.eye(3)]),
                                      np.diag([2.0, 3.0, 3.0]))
        assert [part.tolist() for part in M.split(np.arange(3.0))] == [[0.0], [1.0, 2.0]]

    def test_dual_seminorm_blockwise_inf(self):
        M = block_diag([identity(1, 1.0), zero_operator(1)])
        assert M.dual_seminorm_general(np.array([1.0, 1.0])) == np.inf
        assert M.dual_seminorm_general(np.array([2.0, 0.0])) == 2.0

    def test_apply_concatenates(self):
        M = block_diag([identity(2, 2.0), identity(1, 3.0)])
        np.testing.assert_allclose(M.apply(np.ones(3)), [2.0, 2.0, 3.0])

    def test_apply_rejects_another_length(self):
        # slicing by the block slices alone would cut a longer vector short
        M = block_diag([identity(2), identity(3)])
        for n in (4, 6):
            with pytest.raises(ValueError, match="dim"):
                M.apply(np.ones(n))
            with pytest.raises(ValueError):
                identity(5).apply(np.ones(n))

    def test_empty_blocks_rejected(self):
        with pytest.raises(ValueError):
            BlockDiagOperator(())


class TestOperatorOrder:
    def test_reflexive_and_scaled(self):
        rng = np.random.default_rng(1)
        M = random_psd(rng, 4)
        two = PsdOperator(2.0 * M.matrix)
        assert operator_leq(M.matrix, M.matrix)
        assert operator_leq(M.matrix, two.matrix)
        assert not operator_leq(two.matrix, M.matrix)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dims differ"):
            operator_leq(identity(2).matrix, identity(3).matrix)

    # (a0, b0, a1, b1): a0 I + b0 Q <= a1 I + b1 Q, with b of both signs
    AFFINE_PAIRS = (
        (0.0, 1.0, 0.0, 1.5), (0.0, 1.5, 0.0, 1.0), (0.0, 0.7, 0.0, 0.7), (0.0, 1.0, 0.0, 1.0 - 1e-14),
        (0.0, 2.0, 0.0, 0.0), (3.0, -1.0, 3.0, -1.5), (3.0, -1.5, 3.0, -1.0), (2.0, -1.0, 1.0, 0.0),
        (0.5, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0), (5.0, -1.0, 4.0, -0.5), (4.0, -1.0, 4.0, -1.0),
    )

    def test_affine_leq_matches_eigenvalues(self):
        rng = np.random.default_rng(2)
        for Q in (random_psd(rng, 5), random_psd(rng, 5, 2), zero_operator(3), identity(2, 0.2)):
            eye = np.eye(Q.dim)
            verdicts = []
            for a0, b0, a1, b1 in self.AFFINE_PAIRS:
                want = operator_leq(a0 * eye + b0 * Q.matrix, a1 * eye + b1 * Q.matrix)
                assert affine_leq(a0, b0, a1, b1, Q) == want
                verdicts.append(want)
            a0, b0, a1, b1 = (np.array(col) for col in zip(*self.AFFINE_PAIRS))
            assert affine_leq(a0, b0, a1, b1, Q).tolist() == verdicts  # elementwise over arrays
            assert len(set(verdicts)) == 2

    def test_affine_psd_matches_constructor(self):
        rng = np.random.default_rng(3)
        Q = random_psd(rng, 5, 3)
        hi = float(np.linalg.eigvalsh(Q.matrix)[-1])
        verdicts = []
        for a, b in ((0.0, 2.0), (1.1 * hi, -1.0), (0.9 * hi, -1.0), (-1.0, 0.5), (1.0, 0.0)):
            try:  # the dense constructor's PSD check is the oracle
                PsdOperator(a * np.eye(5) + b * Q.matrix)
                want = True
            except ValueError as exc:
                assert "not PSD" in str(exc)
                want = False
            assert affine_leq(0.0, 0.0, a, b, Q) == want
            verdicts.append(want)
        assert verdicts == [True, True, False, False, True]


class TestScaledView:
    """``PsdOperator.scaled(f)`` against a dense ``PsdOperator(f M)``."""

    FACTORS = (0.3, 1.0, 2.5)

    @staticmethod
    def bases():
        rng = np.random.default_rng(11)
        return [random_psd(rng, 6), random_psd(rng, 6, 3), PsdOperator(np.diag([2.0, 1.0, 0.0]))]

    @staticmethod
    def assert_close(got, want, scale):
        assert abs(got - want) <= 1e-12 * (abs(want) + scale)

    @pytest.mark.parametrize("f", FACTORS)
    def test_matches_dense(self, f):
        for base in self.bases():
            view, dense = base.scaled(f), PsdOperator(f * base.matrix)
            scale = dense._eig_extremes[1]
            for got, want in zip(view._eig_extremes, dense._eig_extremes):
                self.assert_close(got, want, scale)
            np.testing.assert_allclose(view.matrix, dense.matrix, rtol=1e-12, atol=1e-12 * scale)
            rng = np.random.default_rng(0)
            for _ in range(5):
                z = rng.normal(size=base.dim)
                self.assert_close(view.seminorm(z), dense.seminorm(z), np.sqrt(scale) * np.linalg.norm(z))
                r = dense.apply(z)  # in the range: finite dual seminorm
                self.assert_close(
                    view.dual_seminorm_general(r), dense.dual_seminorm_general(r), np.linalg.norm(z)
                )
                off = rng.normal(size=base.dim)
                assert (view.dual_seminorm_general(off) == np.inf) == (
                    dense.dual_seminorm_general(off) == np.inf
                )

    @pytest.mark.parametrize("f", FACTORS)
    def test_inverse(self, f):
        definite, singular = self.bases()[0], self.bases()[1]
        view, dense = definite.scaled(f), PsdOperator(f * definite.matrix)
        want = dense.inverse().matrix
        np.testing.assert_allclose(
            view.inverse().matrix, want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
        )
        with pytest.raises(ValueError, match="ill-conditioned"):
            singular.scaled(f).inverse()

    def test_views_share_the_base_and_decompose_nothing(self, monkeypatch):
        base = self.bases()[0]
        base.dual_seminorm_general(np.ones(6))  # the base's eigh, once
        base.inverse()
        calls = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
        assert base.scaled(1.0) is base
        view = base.scaled(2.0).scaled(1.25)
        assert view.base is base and view.factor == 2.5 and view.definite == base.definite
        assert view._eig[1] is base._eig[1]
        view.dual_seminorm_general(np.ones(6)), view.seminorm(np.ones(6)), view._eig_extremes
        assert view.inverse().base is base.inverse()
        assert calls == []

    @pytest.mark.parametrize("a, b", [(1.5, -1.0), (2.0, -0.5), (0.5, 2.0)])
    def test_affine_matches_dense(self, a, b):
        # a and b < 0 are in units of the base's largest eigenvalue
        for base in self.bases():
            hi = base._eig_extremes[1]
            shift = a * hi if b < 0 else a
            view, dense = base.affine(shift, b), PsdOperator(shift * np.eye(base.dim) + b * base.matrix)
            scale = dense._eig_extremes[1]
            for got, want in zip(view._eig_extremes, dense._eig_extremes):
                self.assert_close(got, want, scale)
            w, v = view._eig
            assert np.all(np.diff(w) >= 0.0)  # ascending also for b < 0
            np.testing.assert_allclose((v * w) @ v.T, dense.matrix, atol=1e-12 * scale)
            np.testing.assert_allclose(view.matrix, dense.matrix, rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(
                view.inverse().matrix, dense.inverse().matrix, rtol=1e-10, atol=1e-12 * scale
            )
            rng = np.random.default_rng(1)
            for _ in range(5):
                z = rng.normal(size=base.dim)
                znorm = np.linalg.norm(z)
                np.testing.assert_allclose(view.apply(z), dense.apply(z), rtol=1e-12, atol=1e-12 * scale)
                self.assert_close(view.seminorm(z), dense.seminorm(z), np.sqrt(scale) * znorm)
                self.assert_close(view.dual_seminorm_general(z), dense.dual_seminorm_general(z), znorm)

    def test_affine_views_compose_and_check_psd(self):
        base = self.bases()[0]
        hi = base._eig_extremes[1]
        view = base.affine(2.0 * hi, -1.0)
        assert base.affine(0.0, 1.0) is base
        twice = view.scaled(2.0)
        assert twice.base is base and (twice.shift, twice.factor) == (4.0 * hi, -2.0)
        with pytest.raises(ValueError, match="not PSD"):
            base.affine(0.5 * hi, -1.0)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            identity(2).scaled(0.0)

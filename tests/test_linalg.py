import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import identity, zero_operator

from vmpadmm.admm import BlockSystem
from vmpadmm.linalg import (
    BlockDiagOperator,
    PsdOperator,
    _compact,
    affine_leq,
    block_diag,
    congruence,
    operator_leq,
)
from vmpadmm.problems import FunctionDescriptor
from vmpadmm.schedule import assemble_Mk, constant_schedule, schedule_from_dict


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

    def test_identity_equality_hash_and_repr(self):
        # an operator is equal only to itself and hashes by identity, and a
        # view, which holds no matrix, prints as its base's affine map
        M, N = PsdOperator(np.eye(2)), PsdOperator(np.eye(2))
        assert M == M and M != N and len({M, N, M}) == 2
        assert block_diag([M]) != block_diag([M]) and hash(block_diag([M])) is not None
        views = M.affine(1.0, np.array([2.0, 3.0]))
        assert repr(views) == f"{M!r}.affine(1.0, {np.array([2.0, 3.0])!r})"
        assert repr(block_diag([views, M.affine(0.0, 2.0)])).startswith("BlockDiagOperator(blocks=(PsdOperator(")

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
        # (sign bits included) for negative and -0.0 entries, also through a
        # view and a stack of views, which apply their base
        M = PsdOperator(matrix)
        z = np.array([-1.5, -0.0, 0.0, 2.0])
        Z = np.array([z, -z, np.full(4, -0.0)])
        f = np.array([1.0, 0.5, 3.0])
        for got, want in ((M.apply(z), matrix @ z), (M.apply(Z), Z @ matrix.T),
                          (M.affine(0.0, 2.0).apply(z), 2.0 * (matrix @ z)),
                          (M.affine(0.0, f).apply(Z), f[:, None] * (Z @ matrix.T))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_zero_matrix_runs_no_eigvalsh(self, monkeypatch):
        # an all-zero anchor (a zero R or S) is diagonal: it has the extremes
        # eigvalsh gives, +0.0 bit for bit, without the decomposition; so does
        # a diagonal H anchor, and a dense one still runs it
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        w = eigvalsh(np.zeros((200, 200)))
        assert np.array(PsdOperator(np.zeros((200, 200)))._eig_extremes).tobytes() == w[[0, -1]].tobytes()
        assert calls == []
        constant_schedule((200, 100, 100), 10).validate()  # H = I, R = S = 0
        assert calls == []
        dense = np.eye(100) + np.diag(np.full(99, 0.1), 1) + np.diag(np.full(99, 0.1), -1)
        cfg = {"H": {"type": "dense", "matrix": dense.tolist()}, "R": {"type": "zero"}, "S": {"type": "zero"}, "k_max": 10}
        schedule_from_dict(cfg, (200, 100, 100)).validate()
        assert calls == [(100, 100)]

    @pytest.mark.parametrize("diagonal", [
        np.ones(200), np.full(7, 2.5), np.full(30, 1.0 / 1.3),
        np.array([0.5, 0.5, 3.0, 0.5, 2.0, 0.5]),  # ties at the smallest entry
        np.r_[np.zeros(10), np.random.default_rng(2).uniform(0.1, 5.0, 40)][np.random.default_rng(3).permutation(50)],
        np.random.default_rng(4).uniform(0.1, 5.0, 200),
    ], ids=["I", "hI", "I/1.3", "ties", "zeros", "random"])
    def test_diagonal_is_decomposed_by_sorting(self, diagonal, monkeypatch):
        # a diagonal matrix is decomposed without LAPACK, into the bits that
        # eigh and eigvalsh give for it
        matrix = np.diag(diagonal)
        w, v = np.linalg.eigh(matrix)
        extremes = np.linalg.eigvalsh(matrix)[[0, -1]]
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, None)
        op = PsdOperator(matrix)
        assert op._eig[0].tobytes() == w.tobytes() and op._eig[1].tobytes() == v.tobytes()
        assert np.array(op._eig_extremes).tobytes() == extremes.tobytes()

    def test_diagonal_ties_above_the_smallest_entry(self):
        # LAPACK's selection sort may order the eigenvectors of a tie above
        # the smallest eigenvalue otherwise; the sorted diagonal gives the
        # same eigenvalues and an eigenbasis of the same identity columns
        diagonal = np.array([2.0, 2.0, 1.0, 3.0, 2.0])
        w, v = PsdOperator(np.diag(diagonal))._eig
        assert w.tobytes() == np.linalg.eigvalsh(np.diag(diagonal)).tobytes()
        np.testing.assert_array_equal(v, np.eye(5)[:, [2, 0, 1, 4, 3]])

    def test_negative_diagonal_is_refused_as_before(self):
        # the refusal names the smallest eigenvalue that eigvalsh gives
        matrix = np.diag([1.0, -0.25, 3.0])
        lo = float(np.linalg.eigvalsh(matrix)[0])
        with pytest.raises(ValueError, match=f"^operator is not PSD: smallest eigenvalue {re.escape(str(lo))}$"):
            PsdOperator(matrix)

    def test_decompositions_read_the_symmetric_part(self):
        # an exactly symmetric matrix is kept as it is, the same object, since
        # 0.5 (M + M^T) is M bit for bit; a matrix symmetric only within
        # tolerance is kept as 0.5 (M + M^T), which is decomposed
        rng = np.random.default_rng(3)
        L = rng.normal(size=(6, 6))
        sym = L @ L.T
        for m in (sym, sym + np.triu(np.full((6, 6), 1e-14), 1)):
            op, part = PsdOperator(m), 0.5 * (m + m.T)
            assert (op.matrix is m) == (m == m.T).all()
            assert op.matrix.tobytes() == part.tobytes() and (op.matrix == op.matrix.T).all()
            w, v = np.linalg.eigh(part)
            assert op._eig[0].tobytes() == w.tobytes() and op._eig[1].tobytes() == v.tobytes()
            w = np.linalg.eigvalsh(part)
            assert np.array(op._eig_extremes).tobytes() == w[[0, -1]].tobytes()
        with pytest.raises(ValueError, match="not symmetric"):
            PsdOperator(sym + np.triu(np.full((6, 6), 1e-6), 1))

    def test_applies_the_symmetric_part(self):
        # a matrix symmetric only within tolerance is applied as the 0.5 (M + M^T)
        # that is decomposed, to a vector and to a stack, bit for bit
        rng = np.random.default_rng(3)
        L = rng.normal(size=(6, 6))
        m = L @ L.T + np.triu(np.full((6, 6), 1e-14), 1)
        part, op = 0.5 * (m + m.T), PsdOperator(m)
        z, Z = rng.normal(size=6), rng.normal(size=(4, 6))
        for got, want in ((op.apply(z), part @ z), (op.apply(Z), Z @ part)):
            assert got.tobytes() == want.tobytes()
        assert op.apply(z).tobytes() != (m @ z).tobytes()  # the raw M would give other bits

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
        # a stacked view, rows acted on by 1 and 0.5 times M, keeps the guard row by row
        views, Z = M.affine(0.0, np.array([1.0, 0.5])), np.array([z, z])
        assert np.array_equal(views._seminorm_from(Z, views.apply(Z)), views.seminorm(Z))
        with pytest.raises(ValueError, match="negative quadratic form"):
            views._seminorm_from(Z, Z @ np.diag([2.0, -2.0]))
        assert np.array_equal(views._seminorm_from(Z, np.array([[0.0, -1e-12], [0.0, 0.0]])), [0.0, 0.0])


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
    """``PsdOperator.affine(a, b)`` against a dense ``PsdOperator(a I + b M)``:
    one view (a number b, a 0-d factor) acting on vectors, and a stack of
    one row (a column b of length 1) acting on a one-row stack."""

    FACTORS = (0.3, 1.0, 2.5)

    @staticmethod
    def bases():
        rng = np.random.default_rng(11)
        return [random_psd(rng, 6), random_psd(rng, 6, 3), PsdOperator(np.diag([2.0, 1.0, 0.0]))]

    @staticmethod
    def assert_close(got, want, scale):
        """Equal within roundoff, and +inf exactly where ``want`` is."""
        got, want = np.broadcast_arrays(got, want)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * (np.abs(want[finite]) + scale))

    def assert_matches_dense(self, base, a, b, seed):
        """apply, seminorm and dual seminorm of both views of a I + b base
        against the dense operator, and +inf dual seminorms off its range
        exactly where the dense one has them."""
        dense = PsdOperator(a * np.eye(base.dim) + b * base.matrix)
        scale = float(np.linalg.eigvalsh(dense.matrix)[-1])
        rng = np.random.default_rng(seed)
        for view, shape in ((base.affine(a, b), lambda v: v), (base.affine(a, np.array([b])), lambda v: v[None])):
            for _ in range(5):
                z = rng.normal(size=base.dim)
                znorm = np.linalg.norm(z)
                got = view.apply(shape(z))
                assert got.shape == shape(z).shape
                np.testing.assert_allclose(got, shape(dense.apply(z)), rtol=1e-12, atol=1e-12 * scale)
                self.assert_close(view.seminorm(shape(z)), dense.seminorm(z), np.sqrt(scale) * znorm)
                r = dense.apply(z)  # in the range: finite dual seminorm
                self.assert_close(view.dual_seminorm_general(shape(r)), dense.dual_seminorm_general(r), znorm)
                self.assert_close(view.dual_seminorm_general(shape(z)), dense.dual_seminorm_general(z), znorm)
                off = rng.normal(size=base.dim)
                assert np.all((view.dual_seminorm_general(shape(off)) == np.inf)
                              == (dense.dual_seminorm_general(off) == np.inf))

    @pytest.mark.parametrize("f", FACTORS)
    def test_matches_dense(self, f):
        for base in self.bases():
            self.assert_matches_dense(base, 0.0, f, seed=0)

    @pytest.mark.parametrize("a, b", [(1.5, -1.0), (2.0, -0.5), (0.5, 2.0)])
    def test_affine_matches_dense(self, a, b):
        # a and b < 0 are in units of the base's largest eigenvalue
        for base in self.bases():
            hi = base._eig_extremes[1]
            self.assert_matches_dense(base, a * hi if b < 0 else a, b, seed=1)

    def test_views_share_the_base_and_decompose_nothing(self, monkeypatch):
        base = self.bases()[0]
        base.dual_seminorm_general(np.ones(6))  # the base's eigh, once
        calls = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
        view = base.affine(0.0, 2.0).affine(0.0, 1.25)
        assert view.base is base and view.factors == 2.5 and view.definite == base.definite
        view.dual_seminorm_general(np.ones(6)), view.seminorm(np.ones(6))
        rows = base.affine(0.0, np.array([2.5]))
        rows.dual_seminorm_general(np.ones((1, 6))), rows.seminorm(np.ones((1, 6)))
        assert calls == []

    def test_affine_views_compose_and_check_psd(self):
        base = self.bases()[0]
        hi = base._eig_extremes[1]
        view = base.affine(2.0 * hi, -1.0)
        twice = view.affine(0.0, 2.0)
        assert twice.base is base and (twice.shift, twice.factors) == (4.0 * hi, -2.0)
        with pytest.raises(ValueError, match="not PSD"):
            base.affine(0.5 * hi, -1.0)
        with pytest.raises(ValueError, match="not PSD"):
            base.affine(0.5 * hi, np.array([-1.0]))

    def test_nonpositive_factor_rejected(self):
        # a negative factor of a definite base is not PSD; a zero factor gives
        # the zero operator, which is not definite
        with pytest.raises(ValueError, match="not PSD"):
            identity(2).affine(0.0, -1.0)
        zero = identity(2).affine(0.0, 0.0)
        assert not zero.definite and zero.seminorm(np.ones(2)) == 0.0


class TestCongruence:
    """N^T H N is symmetrized once, where it is formed: every operator built
    from it adds an exactly symmetric anchor and symmetrizes nothing again."""

    @staticmethod
    def dense_spd(rng, dim):
        G = rng.normal(size=(dim, dim))
        return G @ G.T + 0.1 * np.eye(dim)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        N = rng.normal(size=(7, 4))  # not square
        for H in (self.dense_spd(rng, 7), np.diag(rng.uniform(0.5, 2.0, size=7)), 1.7 * np.eye(7)):
            C = congruence(H, N)
            assert C.shape == (4, 4) and (C == C.T).all()
            np.testing.assert_allclose(C, N.T @ H @ N, rtol=1e-13, atol=1e-13)
            assert congruence(_compact(H), N).tobytes() == C.tobytes()  # H in its compact form

    def test_operators_add_an_anchor_to_it(self):
        # dense H, R_0 and S_0: the middle block of M_0, each block system's K
        # and a linearized R's anchor G are the congruence plus the anchor, bit for bit
        rng = np.random.default_rng(6)
        (n_x, n_y, m) = dims = (4, 3, 5)
        A, B = rng.normal(size=(m, n_x)), rng.normal(size=(m, n_y))
        cfg = {"H": {"type": "dense", "matrix": self.dense_spd(rng, m).tolist()},
               "R": {"type": "dense", "matrix": self.dense_spd(rng, n_x).tolist()},
               "S": {"type": "dense", "matrix": self.dense_spd(rng, n_y).tolist()}, "k_max": 3}
        sched = schedule_from_dict(cfg, dims, A=A)
        (H0, _, _), (R0, _, _), (S0, _, _) = map(sched.family, "HRS")
        formed = [(assemble_Mk(H0, R0, S0, B, 1.0).blocks[1].matrix, congruence(H0.matrix, B) + S0.matrix)]
        for N, family, P0 in ((A, "R", R0), (B, "S", S0)):
            desc = FunctionDescriptor("quadratic", N.shape[1], Q=np.eye(N.shape[1]), q=np.zeros(N.shape[1]))
            formed.append((BlockSystem(desc, N, sched, family).K, congruence(H0.matrix, N) + P0.matrix))
        G = congruence(H0.matrix, A)
        linearized = dict(cfg, R={"type": "linearized", "tau": 2.0 * float(np.linalg.eigvalsh(G)[-1])})
        formed.append((schedule_from_dict(linearized, dims, A=A).family("R")[0].matrix, G))
        for got, want in formed:
            assert got.tobytes() == want.tobytes() and (got == got.T).all()

"""Dense linear algebra with degenerate (PSD) seminorms and dual seminorms.

All operators here are selfadjoint positive semidefinite matrices on small
finite-dimensional spaces.  A PSD operator M induces the seminorm
``||z||_M = sqrt(<Mz, z>)`` and an extended dual seminorm that is finite
exactly on the range of M, where ``||M w||*_M = ||w||_M``.  Views
a I + b M share M's eigendecomposition, and two of them are ordered
(``affine_leq``) at M's two extreme eigenvalues.  A diagonal M (no nonzero
entry off its diagonal, :func:`_is_diagonal`) is decomposed by sorting its
diagonal, without LAPACK, and is multiplied by elementwise in its
:func:`_compact` form (:func:`_mul`, :func:`congruence`).

Every operator acts along the last axis: a vector is one point, and a
``(L, n)`` array is a stack of L points whose seminorms, dual seminorms and
products (inner ones by ``np.vecdot``) come out row by row.
``M.affine(a, b)`` with a column of factors b is a stack of views, row i
acted on by a I + b_i M, so that one product with M serves a whole block of
iterations whose metrics differ only in their factor; with a number b it is
the one view a I + b M.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "PsdOperator",
    "BlockDiagOperator",
    "operator_leq",
    "affine_leq",
    "block_diag",
    "congruence",
    "finite_array",
]

_SYMMETRY_TOL = 1e-12
_PSD_TOL = 1e-10
_DEFINITE_TOL = 1e-12
_RANGE_TOL = 1e-8
_COND_CAP = 1e12


@dataclass(frozen=True, eq=False)
class PsdOperator:
    """A selfadjoint positive (semi)definite operator given by a dense matrix.

    Immutable; the eigendecomposition and the inverse are computed lazily
    and cached.  :meth:`affine` gives a I + b times the operator as a view
    that shares them.  ``matrix`` is exactly symmetric: a matrix given
    symmetric only within tolerance is kept as 0.5 (M + M^T), which is both
    applied and decomposed; an exactly symmetric one is kept as it is.
    """

    matrix: np.ndarray
    definite: bool = False
    _zero = False  # the matrix is all zeros (set at construction; a view applies through its base)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if not (m == m.T).all():
            if np.abs(m - m.T).max() > _SYMMETRY_TOL * max(1.0, float(np.abs(m).max())):
                raise ValueError("operator matrix is not symmetric within tolerance")
            m = 0.5 * (m + m.T)  # m_ij + m_ji is m_ji + m_ij: exactly symmetric
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_zero", not m.any())
        lo, hi = self._eig_extremes
        if lo < -_PSD_TOL * max(1.0, hi):
            raise ValueError(f"operator is not PSD: smallest eigenvalue {lo}")
        if self.definite and lo < _DEFINITE_TOL * max(1.0, hi):
            raise ValueError(
                f"operator flagged definite but smallest eigenvalue is {lo}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def row(self, i) -> "PsdOperator":
        """The operator that acts on row i (or the rows of a slice) of a
        stack: this one, which acts on every row alike."""
        return self

    @cached_property
    def _diagonal(self) -> np.ndarray | None:
        """The diagonal of a matrix with no nonzero entry off it, else None."""
        return np.diag(self.matrix) if _is_diagonal(self.matrix) else None

    @cached_property
    def _eig(self):
        d = self._diagonal
        if d is not None:  # the diagonal sorted, with the identity's columns in that order
            order = np.argsort(d, kind="stable")
            v = np.zeros((self.dim, self.dim))  # row-major, as eigh returns it
            v[order, np.arange(self.dim)] = 1.0
            return d[order], v
        w, v = np.linalg.eigh(self.matrix)
        return w, v

    @cached_property
    def _eig_extremes(self):
        d = self._diagonal
        if d is not None:  # what eigvalsh gives for a diagonal, bit for bit up to the sign of a zero
            return float(d.min()), float(d.max())
        w = np.linalg.eigvalsh(self.matrix)
        return float(w[0]), float(w[-1])

    @cached_property
    def _psd_scale(self) -> float:
        """The PSD roundoff budget of a quadratic form, per unit ``<z, z>``."""
        return _PSD_TOL * max(1.0, self._eig_extremes[1])

    def apply(self, z: np.ndarray) -> np.ndarray:
        """``M z``, row by row for a stack; an all-zero M gives the same +0.0
        entries without a product.  The length of z is not checked here but
        where data enters; numpy raises ``ValueError`` for a vector of another
        length (except for an all-zero M)."""
        if self._zero:
            return np.zeros(z.shape)
        return self.matrix @ z if z.ndim == 1 else z @ self.matrix

    def seminorm(self, z: np.ndarray) -> float:
        """``sqrt(<Mz, z>)``, row by row for a stack; raises if a quadratic
        form is negative beyond the PSD roundoff budget."""
        z = _check_dim(z, self.dim)
        return self._seminorm_from(z, self.apply(z))

    def _seminorm_from(self, z: np.ndarray, Mz: np.ndarray) -> float:
        """:meth:`seminorm` of z from the product ``Mz = self.apply(z)``
        formed by the caller, with the same negative-form guard."""
        q = np.vecdot(z, Mz)
        if (q < 0.0).any() and (q < -self._psd_scale * np.vecdot(z, z)).any():
            raise ValueError(f"negative quadratic form {np.min(q)}: operator is not PSD")
        return np.sqrt(np.maximum(q, 0.0))

    def dual_seminorm_general(self, r: np.ndarray) -> float:
        """Dual seminorm of an arbitrary vector (row by row for a stack),
        +inf off range(M).

        Projects onto the eigenbasis; if the component of ``r`` outside
        range(M) exceeds ``1e-8 * ||r||`` the dual seminorm is infinite.
        """
        r = _check_dim(r, self.dim)
        if not r.any():  # zero without the eigenbasis (M = 0 gives r = 0 on the solver's path)
            return np.zeros(r.shape[:-1])[()]
        dual, off = self.range_parts(r)
        return np.where(off > _RANGE_TOL * np.sqrt(np.vecdot(r, r)), np.inf, dual)[()]

    @cached_property
    def _range_split(self):
        """(V, w, off): the eigenbasis V and eigenvalues w with which
        :meth:`range_parts` splits a vector, w set to +inf off range(M), and
        ``off`` the mask of those eigenvalues, or None when M is definite."""
        return _range_split(*self._eig, self.dim)

    def range_parts(self, r: np.ndarray) -> tuple[float, float]:
        """(dual seminorm of r's part on range(M), norm of r's part off it),
        row by row for a stack, from the split cached once per operator."""
        v, w, off = self._range_split
        c2 = np.square(r @ v)
        dual = np.sqrt((c2 / w).sum(axis=-1))
        return dual, (np.zeros(np.shape(dual))[()] if off is None else np.sqrt((c2 * off).sum(axis=-1)))

    def inverse(self) -> "PsdOperator":
        """Inverse via eigendecomposition; requires a definite operator."""
        return self._inverse

    @cached_property
    def _inverse(self) -> "PsdOperator":
        w, v = self._eig
        if w[0] <= 0.0 or w[-1] / w[0] > _COND_CAP:
            raise ValueError(
                f"operator is too ill-conditioned to invert (eigenvalues {w[0]}..{w[-1]})"
            )
        inv = (v / w) @ v.T
        return PsdOperator(0.5 * (inv + inv.T), definite=True)

    def affine(self, a: float, b) -> "PsdOperator":
        """``a I + b * self`` as a view that runs no decomposition of its
        own; raises if it is not PSD.  For a column b, the stack of views
        whose row i is a I + b_i self; for a number b, one view, which acts on
        a vector and on every row of a stack alike."""
        return _RowViews(self, float(a), np.asarray(b, dtype=float))


class _RowViews(PsdOperator):
    """A stack of views ``shift * I + factors[i] * base``, row i of a stack
    acted on by the i-th: the metrics of a block of iterations that differ
    only in their drift factor.  A 0-d array of factors is one view.  Each
    product is one product of the whole stack with the base, and the range
    split is made row-wise from the base's eigenbasis."""

    def __init__(self, base: PsdOperator, shift: float, factors: np.ndarray):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "factors", factors)
        low = factors.min(initial=np.inf)  # one reduction: views are built per block and per kept row
        object.__setattr__(self, "definite", base.definite and shift >= 0.0 and bool(low > 0.0))
        if (shift < 0.0 or low < 0.0) and not affine_leq(0.0, 0.0, shift, factors, base).all():
            smallest = np.min([factors * w + shift for w in base._eig_extremes])
            raise ValueError(f"operator is not PSD: smallest eigenvalue {float(smallest)}")

    @property
    def dim(self) -> int:
        return self.base.dim

    def __repr__(self) -> str:  # a view holds no matrix of its own
        return f"{self.base!r}.affine({self.shift!r}, {self.factors!r})"

    def row(self, i) -> PsdOperator:  # with a slice, the stack of its rows, with their own factors
        return self.base.affine(self.shift, self.factors[i].copy())

    @cached_property
    def _psd_scale(self) -> np.ndarray:
        hi = np.maximum(*(self.factors * w + self.shift for w in self.base._eig_extremes))
        return _PSD_TOL * np.maximum(1.0, hi)

    def apply(self, z: np.ndarray) -> np.ndarray:
        Mz = self.factors[..., None] * self.base.apply(z)
        return Mz + self.shift * z if self.shift else Mz

    @cached_property
    def _range_split(self):
        w, v = self.base._eig
        return _range_split(self.shift + self.factors[..., None] * w, v, self.dim)

    def affine(self, a: float, b) -> PsdOperator:  # a view of the base, not of this view
        return self.base.affine(a + b * self.shift if self.shift else a, b * self.factors)


@dataclass(frozen=True, eq=False)
class BlockDiagOperator:
    """Block-diagonal PSD operator on a product space.

    The seminorm decomposes as the root-sum-of-squares of block seminorms.
    Each block's slice of the product space is formed once, at construction.
    """

    blocks: tuple[PsdOperator, ...]
    offsets: tuple[int, ...] = field(init=False)
    dim: int = field(init=False)
    _parts: tuple[tuple[PsdOperator, slice], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("block_diag requires at least one block")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        offs, at = [], 0
        for b in self.blocks:
            offs.append(at)
            at += b.dim
        offs.append(at)
        object.__setattr__(self, "offsets", tuple(offs))
        object.__setattr__(self, "dim", at)
        parts = tuple((b, slice(o, o + b.dim)) for b, o in zip(self.blocks, offs))
        object.__setattr__(self, "_parts", parts)

    def row(self, i: int) -> "BlockDiagOperator":
        """The operator that acts on row i of a stack."""
        return block_diag([b.row(i) for b in self.blocks])

    def split(self, z: np.ndarray) -> list[np.ndarray]:
        z = _check_dim(z, self.dim)
        return [z[..., s] for _, s in self._parts]

    def apply(self, z: np.ndarray) -> np.ndarray:
        """``M z``, block by block."""
        z = _check_dim(z, self.dim)
        return np.concatenate([b.apply(z[..., s]) for b, s in self._parts], axis=-1)

    def seminorm(self, z: np.ndarray) -> float:
        """Root sum of the blocks' squared seminorms; a block that is zero in
        every row adds exactly 0 and is not multiplied."""
        z = _check_dim(z, self.dim)
        q = np.zeros(z.shape[:-1])
        for b, s in self._parts:
            zb = z[..., s]
            if zb.any():
                q = q + b.seminorm(zb) ** 2
        return np.sqrt(q)[()]

    def dual_seminorm_general(self, r: np.ndarray) -> float:
        """Root sum of the blocks' squared dual seminorms: +inf when one is."""
        return np.sqrt(sum(b.dual_seminorm_general(p) ** 2 for b, p in zip(self.blocks, self.split(r))))


def _range_split(w, v, dim):
    """The split of :meth:`PsdOperator._range_split` from eigenvalues w (one
    row of them per operator of a stack) and eigenvectors v: range(M) is
    spanned by the eigenvectors whose eigenvalues exceed ``dim * 1e-14``
    times the largest."""
    pos = w > np.maximum(w.max(axis=-1, keepdims=True), 0.0) * dim * 1e-14
    return (v, w, None) if pos.all() else (v, np.where(pos, w, np.inf), ~pos)


_SHAPES = ("a number", "a vector", "a matrix")


def finite_array(value, name: str, ndim: int | None = None) -> np.ndarray:
    """``value`` as a float array (with ``ndim`` dimensions when given);
    raises ``ValueError`` naming ``name`` when it is not numeric, has another
    number of dimensions, or has a NaN or +-inf entry."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or (ndim is not None and arr.ndim != ndim):
        raise ValueError(f"{name} must be {'numeric' if ndim is None else _SHAPES[ndim]}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite; it has non-finite entries")
    return arr


def _check_dim(z: np.ndarray, dim: int) -> np.ndarray:
    """z as a float vector of length dim, or a stack of them."""
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != dim:
        raise ValueError(f"vector of shape {z.shape} vs operator dim {dim}")
    return z


def _is_diagonal(M: np.ndarray) -> bool:
    """Every entry of the square M off its diagonal is zero."""
    return np.count_nonzero(M) == np.count_nonzero(np.diag(M))


def _compact(M: np.ndarray) -> np.ndarray:
    """M as :func:`_mul` multiplies by it: the number h when M = h I, the
    vector of its diagonal when M is square and diagonal, else M."""
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not _is_diagonal(M):
        return M
    d = np.diag(M)
    return d[0] if (d == d[0]).all() else d


def _mul(M, u: np.ndarray) -> np.ndarray:
    """M u for M in its :func:`_compact` form: a diagonal one elementwise,
    which for finite u rounds every entry as the matrix product does (its
    other terms are exact zeros) apart from the sign of an exact zero."""
    return M @ u if M.ndim == 2 else M * u


def congruence(H, N: np.ndarray) -> np.ndarray:
    """``N^T H N`` for H given as a matrix or in its :func:`_compact` form,
    formed as C = ``(N^T H) N`` with a diagonal H applied to the columns of
    N^T elementwise (the bits of the matrix product, whose other terms are
    exact zeros, without it) and returned as the exactly symmetric
    0.5 (C + C^T), so that its sum with an exactly symmetric anchor is too."""
    h = _compact(H)  # H itself when it is given in that form
    C = (N.T @ h if h.ndim == 2 else N.T * h) @ N
    return 0.5 * (C + C.T)  # c_ij + c_ji is c_ji + c_ij


def operator_leq(M: np.ndarray, N: np.ndarray) -> bool:
    """Partial order check M <= N for symmetric matrices, i.e. N - M is PSD
    up to roundoff slack."""
    if M.shape != N.shape:
        raise ValueError(f"operator dims differ: {M.shape} vs {N.shape}")
    diff = N - M
    w = np.linalg.eigvalsh(0.5 * (diff + diff.T))
    scale = max(abs(float(w[0])), abs(float(w[-1])))
    return float(w[0]) >= -_PSD_TOL * (1.0 + scale)


def affine_leq(a0, b0, a1, b1, Q: PsdOperator):
    """``operator_leq(a0 I + b0 Q, a1 I + b1 Q)`` without a decomposition:
    the difference has the eigenvalues (a1 - a0) + (b1 - b0) w over Q's
    eigenvalues w, so its extremes lie at Q's.  Elementwise over arrays of
    coefficients; ``affine_leq(0, 0, a, b, Q)`` tests that a I + b Q is PSD."""
    lo, hi = Q._eig_extremes
    da, db = a1 - a0, b1 - b0
    at_lo, at_hi = db * lo + da, db * hi + da
    scale = np.maximum(np.abs(at_lo), np.abs(at_hi))
    return np.minimum(at_lo, at_hi) >= -_PSD_TOL * (1.0 + scale)


def block_diag(blocks) -> BlockDiagOperator:
    return BlockDiagOperator(tuple(blocks))

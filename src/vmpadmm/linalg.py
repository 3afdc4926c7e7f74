"""Dense linear algebra with degenerate (PSD) seminorms and dual seminorms.

All operators here are selfadjoint positive semidefinite matrices on small
finite-dimensional spaces.  A PSD operator M induces the seminorm
``||z||_M = sqrt(<Mz, z>)`` and an extended dual seminorm that is finite
exactly on the range of M, where ``||M w||*_M = ||w||_M``.  Views
a I + b M share M's eigendecomposition, and two of them are ordered
(``affine_leq``) at M's two extreme eigenvalues.

Every operator acts along the last axis: a vector is one point, and a
``(L, n)`` array is a stack of L points whose seminorms, dual seminorms and
products come out row by row.  ``M.affine(a, b)`` with a column of factors b
is a stack of views, row i acted on by a I + b_i M, so that one product with M
serves a whole block of iterations whose metrics differ only in their factor.
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
    "finite_array",
    "row_dot",
]

_SYMMETRY_TOL = 1e-12
_PSD_TOL = 1e-10
_DEFINITE_TOL = 1e-12
_RANGE_TOL = 1e-8
_COND_CAP = 1e12


@dataclass(frozen=True)
class PsdOperator:
    """A selfadjoint positive (semi)definite operator given by a dense matrix.

    Immutable; the eigendecomposition and the inverse are computed lazily
    and cached.  :meth:`affine` gives a I + b times the operator, and
    :meth:`scaled` f times it, as a view that shares them.
    """

    matrix: np.ndarray
    definite: bool = False
    _zero = False  # the matrix is all zeros (set at construction; a view applies through its base)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_zero", not m.any())
        scale = max(1.0, float(np.abs(m).max(initial=0.0)))
        if np.abs(m - m.T).max(initial=0.0) > _SYMMETRY_TOL * scale:
            raise ValueError("operator matrix is not symmetric within tolerance")
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

    @cached_property
    def _eig(self):
        w, v = np.linalg.eigh(0.5 * (self.matrix + self.matrix.T))
        return w, v

    @cached_property
    def _eig_extremes(self):
        w = np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))
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
        return self.matrix @ z if z.ndim == 1 else z @ self._rows_matrix

    @cached_property
    def _rows_matrix(self) -> np.ndarray:
        """M^T in C order, by which a stack of rows is multiplied: M itself
        when it is exactly symmetric (numpy multiplies by a transposed view
        at a slower pace)."""
        m = self.matrix
        return m if (m == m.T).all() else np.ascontiguousarray(m.T)

    def row(self, i: int) -> "PsdOperator":
        """The operator that acts on row i of a stack (on the rows of a
        slice): this one, for every row."""
        return self

    def seminorm(self, z: np.ndarray) -> float:
        """``sqrt(<Mz, z>)``, row by row for a stack; raises if a quadratic
        form is negative beyond the PSD roundoff budget."""
        z = _check_dim(z, self.dim)
        return self._seminorm_from(z, self.apply(z))

    def _seminorm_from(self, z: np.ndarray, Mz: np.ndarray) -> float:
        """:meth:`seminorm` of z from the product ``Mz = self.apply(z)``
        formed by the caller, with the same negative-form guard."""
        q = row_dot(z, Mz)
        if (q < 0.0).any() and (q < -self._psd_scale * row_dot(z, z)).any():
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
        return np.where(off > _RANGE_TOL * np.sqrt(row_dot(r, r)), np.inf, dual)[()]

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

    def scaled(self, f: float) -> "PsdOperator":
        """``f * self`` for f > 0, as a view that runs no decomposition of
        its own; ``scaled(1.0)`` is ``self``."""
        if not f > 0.0:
            raise ValueError(f"scale factor must be positive, got {f}")
        return self.affine(0.0, float(f))

    def affine(self, a: float, b) -> "PsdOperator":
        """``a I + b * self`` as a view that runs no decomposition of its
        own; raises if it is not PSD.  ``affine(0.0, 1.0)`` is ``self``.
        For an array b, the stack of views whose row i is a I + b_i self."""
        if isinstance(b, np.ndarray):
            return _RowViews(self, float(a), b)
        return self if (a, b) == (0.0, 1.0) else _ScaledOperator(self, float(a), float(b))


class _ScaledOperator(PsdOperator):
    """``shift * I + factor * base``: the base's eigenvectors with the
    eigenvalues shift + factor * w, kept ascending (reversed when factor < 0).
    PSD by construction when shift, factor >= 0; otherwise checked."""

    def __init__(self, base: PsdOperator, shift: float, factor: float):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "definite", base.definite and shift >= 0.0 and factor > 0.0)
        if (shift < 0.0 or factor < 0.0) and not affine_leq(0.0, 0.0, shift, factor, base):
            raise ValueError(f"operator is not PSD: smallest eigenvalue {self._eig_extremes[0]}")

    @cached_property
    def matrix(self) -> np.ndarray:
        m = self.factor * self.base.matrix
        return m + self.shift * np.eye(self.dim) if self.shift else m

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def _eig(self):
        w, v = self.base._eig
        w = self.factor * w + self.shift
        return (w, v) if self.factor >= 0.0 else (w[::-1], v[:, ::-1])

    @property
    def _eig_extremes(self):
        lo, hi = (self.factor * w + self.shift for w in self.base._eig_extremes)
        return (lo, hi) if self.factor >= 0.0 else (hi, lo)

    def apply(self, z: np.ndarray) -> np.ndarray:
        # with a shift, one product with the formed matrix, as for a dense operator
        return super().apply(z) if self.shift else self.factor * self.base.apply(z)

    @cached_property
    def _range_split(self):  # a positive multiple of the base has the base's range
        if self.shift or self.factor < 0.0:
            return _range_split(*self._eig, self.dim)
        v, w, off = self.base._range_split
        return v, self.factor * w, off

    def inverse(self) -> PsdOperator:  # with a shift, formed from the shared eigenbasis
        return self._inverse if self.shift else self.base.inverse().scaled(1.0 / self.factor)

    def affine(self, a: float, b: float) -> PsdOperator:
        return self.base.affine(a + b * self.shift if self.shift else a, b * self.factor)


class _RowViews(PsdOperator):
    """A stack of views ``shift * I + factors[i] * base``, row i of a stack
    acted on by the i-th: the metrics of a block of iterations that differ
    only in their drift factor.  Each product is one product of the whole
    stack with the base, and the range split is the base's, row-wise."""

    def __init__(self, base: PsdOperator, shift: float, factors: np.ndarray):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "definite", base.definite and shift >= 0.0 and bool((factors > 0.0).all()))
        if (shift < 0.0 or (factors < 0.0).any()) and not affine_leq(0.0, 0.0, shift, factors, base).all():
            raise ValueError("operator is not PSD in some row of the stack")

    @property
    def dim(self) -> int:
        return self.base.dim

    def row(self, i: int) -> PsdOperator:  # with a slice, the stack of its rows
        return self.base.affine(self.shift, self.factors[i])

    @cached_property
    def _psd_scale(self) -> np.ndarray:
        hi = np.maximum(*(self.factors * w + self.shift for w in self.base._eig_extremes))
        return _PSD_TOL * np.maximum(1.0, hi)

    def apply(self, z: np.ndarray) -> np.ndarray:
        Mz = self.factors[:, None] * self.base.apply(z)
        return Mz + self.shift * z if self.shift else Mz

    @cached_property
    def _range_split(self):
        f = self.factors[:, None]
        if not self.shift and (f > 0.0).all():  # every row has the base's range
            v, w, off = self.base._range_split
            return v, f * w, off
        w, v = self.base._eig
        return _range_split(self.shift + f * w, v, self.dim)


@dataclass(frozen=True)
class BlockDiagOperator:
    """Block-diagonal PSD operator on a product space.

    The seminorm decomposes as the root-sum-of-squares of block seminorms.
    Each block's slice of the product space is formed once, at construction.
    """

    blocks: tuple[PsdOperator, ...]
    offsets: tuple[int, ...] = field(init=False)
    dim: int = field(init=False)
    _parts: tuple[tuple[PsdOperator, slice], ...] = field(init=False, repr=False, compare=False)

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


def row_dot(a: np.ndarray, b: np.ndarray):
    """``<a, b>`` along the last axis: one number for two vectors, a column
    for two stacks, each by the same BLAS dot as ``a @ b`` (``np.vecdot``,
    numpy >= 2)."""
    return a @ b if a.ndim == 1 else np.vecdot(a, b)


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

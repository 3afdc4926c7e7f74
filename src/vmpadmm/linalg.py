"""Dense linear algebra with degenerate (PSD) seminorms and dual seminorms.

All operators here are selfadjoint positive semidefinite matrices on small
finite-dimensional spaces.  A PSD operator M induces the seminorm
``||z||_M = sqrt(<Mz, z>)`` and an extended dual seminorm that is finite
exactly on the range of M, where ``||M w||*_M = ||w||_M``.  Views
a I + b M share M's eigendecomposition, and two of them are ordered
(``affine_leq``) at M's two extreme eigenvalues.
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

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
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
        """``M z``.  The length of z is not checked here but where data
        enters; numpy raises ``ValueError`` for a vector of another length."""
        return self.matrix @ z

    def seminorm(self, z: np.ndarray) -> float:
        """``sqrt(<Mz, z>)``; raises if the quadratic form is negative
        beyond the PSD roundoff budget."""
        z = _check_dim(z, self.dim)
        return self._seminorm_from(z, self.apply(z))

    def _seminorm_from(self, z: np.ndarray, Mz: np.ndarray) -> float:
        """:meth:`seminorm` of z from the product ``Mz = self.apply(z)``
        formed by the caller, with the same negative-form guard."""
        q = float(z @ Mz)
        if q < 0.0 and q < -self._psd_scale * float(z @ z):
            raise ValueError(f"negative quadratic form {q}: operator is not PSD")
        return np.sqrt(max(q, 0.0))

    def dual_seminorm_general(self, r: np.ndarray) -> float:
        """Dual seminorm of an arbitrary vector, +inf off range(M).

        Projects onto the eigenbasis; if the component of ``r`` outside
        range(M) exceeds ``1e-8 * ||r||`` the dual seminorm is infinite.
        """
        r = _check_dim(r, self.dim)
        rnorm = float(np.sqrt(r @ r))
        if rnorm == 0.0:
            return 0.0
        dual, off = self.range_parts(r)
        return np.inf if off > _RANGE_TOL * rnorm else dual

    def range_parts(self, r: np.ndarray) -> tuple[float, float]:
        """(dual seminorm of r's part on range(M), norm of r's part off it),
        from the cached eigenbasis; range(M) is spanned by the eigenvectors
        whose eigenvalues exceed ``dim * 1e-14`` times the largest."""
        w, v = self._eig
        pos = w > max(float(w[-1]), 0.0) * self.dim * 1e-14
        coeffs = v.T @ r
        off = coeffs[~pos]
        return float(np.sqrt((coeffs[pos] ** 2 / w[pos]).sum())), float(np.sqrt(off @ off))

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

    def affine(self, a: float, b: float) -> "PsdOperator":
        """``a I + b * self`` as a view that runs no decomposition of its
        own; raises if it is not PSD.  ``affine(0.0, 1.0)`` is ``self``."""
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

    def inverse(self) -> PsdOperator:  # with a shift, formed from the shared eigenbasis
        return self._inverse if self.shift else self.base.inverse().scaled(1.0 / self.factor)

    def affine(self, a: float, b: float) -> PsdOperator:
        return self.base.affine(a + b * self.shift, b * self.factor)


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

    def split(self, z: np.ndarray) -> list[np.ndarray]:
        z = _check_dim(z, self.dim)
        return [z[s] for _, s in self._parts]

    def apply(self, z: np.ndarray) -> np.ndarray:
        """``M z``, block by block."""
        z = _check_dim(z, self.dim)
        return np.concatenate([b.apply(z[s]) for b, s in self._parts])

    def seminorm(self, z: np.ndarray) -> float:
        z = _check_dim(z, self.dim)
        return float(np.sqrt(sum(b.seminorm(z[s]) ** 2 for b, s in self._parts)))

    def dual_seminorm_general(self, r: np.ndarray) -> float:
        parts = self.split(r)
        vals = [b.dual_seminorm_general(p) for b, p in zip(self.blocks, parts)]
        if any(np.isinf(v) for v in vals):
            return np.inf
        return float(np.sqrt(sum(v**2 for v in vals)))


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
    z = np.asarray(z, dtype=float)
    if z.shape != (dim,):
        raise ValueError(f"vector of shape {z.shape} vs operator dim {dim}")
    return z


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

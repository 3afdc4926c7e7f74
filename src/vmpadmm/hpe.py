"""Relative-error inexact proximal-point driver for monotone inclusions.

This module does not compute steps for a monotone operator T: it certifies
iteration triples handed to it by an instance (the proximal ADMM solver, or
a test double).  For each accepted triple it checks the relative error
condition in the iteration's seminorm, and it keeps the running ergodic and
Fejer sums of the run; the rate bounds come from :class:`RateBounds`.
A block of consecutive iterations is handed over as stacked rows and checked
in one pass; one iteration is the block of one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HpeIterate",
    "HpeState",
    "RateBounds",
    "BoundCheck",
    "check_error_condition",
    "row_of",
    "running_sums",
]

_RECON_TOL = 1e-10
_ERROR_TOL = 1e-8


@dataclass(frozen=True, slots=True, eq=False)
class HpeIterate:
    """Accepted consecutive iterations: points, residuals with tracked
    preimages, slacks.

    ``k`` is the column of the iterations, the four vectors are stacked rows
    of M's dimension, one per iteration, eta a column and M a stack of views
    acting on row i by M_{k[i]}.  ``preimage`` is z_{k-1} - z_k, so the
    residual is r_k = M_k(preimage) and its dual seminorm equals the seminorm
    of the preimage.  One iteration is a block of one row.
    """

    k: np.ndarray
    z: np.ndarray
    z_tilde: np.ndarray
    r: np.ndarray
    preimage: np.ndarray
    eta: float
    M: object  # PsdOperator or BlockDiagOperator

    def __post_init__(self):
        shape = self.z.shape
        if not (
            self.z_tilde.shape == self.r.shape == self.preimage.shape == shape
            and len(shape) == 2 and shape[1] == self.M.dim and np.shape(self.eta) == shape[:1]
        ):
            raise ValueError(f"iterate vectors must be stacked rows of shape (rows, {self.M.dim}), got {shape}")
        if np.shape(self.k) != shape[:1]:
            raise ValueError(f"iterate index k must be a column of shape {shape[:1]}, got {np.shape(self.k)}")

    @property
    def z_prev(self) -> np.ndarray:
        return self.z + self.preimage


@dataclass(slots=True, eq=False)
class BoundCheck:
    """``lhs <= rhs`` up to ``tol_abs + tol_rel |rhs|``; ``slack`` and the
    verdict ``ok`` are fixed when the check is made.  For a block of
    iterations ``k``, ``lhs`` and any of ``rhs`` and ``tol_abs`` are columns
    with one entry per iteration, and so are ``slack`` and ``ok``."""

    name: str
    k: int
    lhs: float
    rhs: float
    tol_abs: float = 0.0
    tol_rel: float = 1e-6
    slack: float = field(init=False)
    ok: bool = field(init=False)

    def __post_init__(self):
        self.slack = slack = self.rhs - self.lhs
        ok = slack >= -self.tol_abs - self.tol_rel * abs(self.rhs)
        self.ok = ok if isinstance(ok, np.ndarray) else bool(ok)


def row_of(record, i):
    """Row i (or the rows of a slice) of a block's record: of a column or a
    stack of rows, of each value of a dict or each field of a dataclass, and
    the operator that acts on that row of a stacked operator.  A value shared
    by every row is itself.  Every row is a copy, so the cut keeps none of
    the block's arrays alive: the one way a block's rows are kept."""
    if isinstance(record, np.ndarray):
        return record[i].copy()
    if isinstance(record, dict):
        return {name: row_of(v, i) for name, v in record.items()}
    if hasattr(record, "row"):
        return record.row(i)
    spec = getattr(record, "__dataclass_fields__", None)
    if spec is None:
        return record
    return type(record)(**{name: row_of(getattr(record, name), i) for name, f in spec.items() if f.init})


@dataclass
class RateBounds:
    """Theoretical bound constants and right-hand sides for one run.

    ``d0`` must upper-bound the metric-weighted distance from z_0 to the
    solution set; all bounds are increasing in d0, so an upper bound from a
    reference solution yields valid (looser) right-hand sides.
    """

    d0: float
    sigma: float
    C_S: float
    C_P: float
    eta0: float = 0.0
    E: float = field(init=False)
    E_hat: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError(f"sigma must lie in [0, 1), got {self.sigma}")
        if self.eta0 < 0.0:
            raise ValueError("eta0 must be nonnegative")
        cs, cp, sig = self.C_S, self.C_P, self.sigma
        self.E = (1.0 + cp) * (np.sqrt(cp) + cs * cp) + cs * cp**1.5
        self.E_hat = 2.0 * cp * (1.0 + cs) * (sig * cp / (1.0 - sig) + 2.0 * (1.0 + cp))

    # each right-hand side at k, or elementwise over a column of k

    def pointwise_rhs(self, k: int) -> float:
        num = 2.0 * (1.0 + self.sigma) * self.C_P * (self.d0**2 + self.eta0)
        num += 2.0 * (1.0 - self.sigma) * self.eta0
        return np.sqrt(num / ((1.0 - self.sigma) * k))

    def ergodic_res_rhs(self, k: int) -> float:
        return self.E * np.sqrt(self.d0**2 + self.eta0) / k

    def ergodic_eps_rhs(self, k: int) -> float:
        return self.E_hat * (self.d0**2 + self.eta0) / k

    def fejer_rhs(self) -> float:
        """C_P (d0^2 + eta_0): the Fejer bound when d0 is the M_0-distance
        from z_0 to the z* being checked."""
        return float(self.C_P * (self.d0**2 + self.eta0))


def check_error_condition(it: HpeIterate, sigma: float, prev_eta: float) -> tuple[BoundCheck, float]:
    """Relative error condition in the iteration seminorm:

        ||z_k - z~_k||^2_{M_k} + eta_k <= sigma ||z_{k-1} - z~_k||^2_{M_k} + eta_{k-1}.

    Returns the ``"hpe"`` check and ``gap`` = ||z_{k-1} - z~_k||^2_{M_k}, the
    term the right-hand side scales by sigma and the k-th summand of the
    Fejer sum, as columns over the iterations of ``it``, from the column
    ``prev_eta`` of eta_{k-1}, eta_k, ....
    """
    lhs = it.M.seminorm(it.z - it.z_tilde) ** 2 + it.eta
    gap = it.M.seminorm(it.z_prev - it.z_tilde) ** 2
    check = BoundCheck("hpe", it.k, lhs, sigma * gap + prev_eta, tol_abs=_ERROR_TOL, tol_rel=_ERROR_TOL)
    return check, gap


def running_sums(total, rows):
    """The running sums total + rows[0], total + rows[0] + rows[1], ...:
    ``np.cumsum`` adds in order, so each is bit for bit the sum that adding
    one row at a time gives."""
    sums = np.empty((len(rows) + 1, *np.shape(total)))
    sums[0], sums[1:] = total, rows
    return np.cumsum(sums, axis=0, out=sums)[1:]


class HpeState:
    """A single run: start point, rate bounds (which carry sigma and eta_0),
    the latest block of iterates and the running sums of the run.

    The running sums are one array, a row per iteration of the latest block
    and a column each for the sums of z~ and of r, the sum of <r, z~> and the
    Fejer sum: one :func:`running_sums` call advances it and one slice cuts
    it.  The ergodic point and the Fejer check describe the iterations of the
    latest :meth:`add_iterate` only, from those sums, so no history is kept:
    the memory a run holds is bounded by one block, not by k.
    """

    def __init__(self, z0: np.ndarray, bounds: RateBounds):
        self.z0 = np.asarray(z0, dtype=float)
        self.bounds = bounds
        self.k = 0
        self.last: HpeIterate | None = None
        # the running sums, one row per iterate of the latest block (one row of
        # zeros before the first): sum z~_i | sum r_i | sum <r_i, z~_i> | the
        # Fejer sum of ||z_{i-1} - z~_i||^2_{M_i}
        self._sums = np.zeros((1, 2 * len(self.z0) + 2))

    def add_iterate(self, it: HpeIterate) -> BoundCheck:
        """Validate and absorb a block of iterations; returns the column of
        their error-condition checks.

        Raises on structural defects (bad index, residual not matching its
        preimage); the relative error check itself is reported, not raised.
        """
        if not np.array_equal(it.k, np.arange(self.k + 1, self.k + 1 + len(it.z))):
            raise ValueError(f"iterate indices {it.k.tolist()} are not contiguous (expected from {self.k + 1})")
        if (np.asarray(it.eta) < 0.0).any():
            raise ValueError("eta must be nonnegative")
        miss = it.M.apply(it.preimage) - it.r  # M_k (z_{k-1} - z_k), formed independently of r
        if (np.sqrt(np.vecdot(miss, miss)) > _RECON_TOL * (1.0 + np.sqrt(np.vecdot(it.r, it.r)))).any():
            raise ValueError("residual does not equal M_k(z_{k-1} - z_k) within tolerance")
        prev_eta = np.concatenate(([self.bounds.eta0] if self.last is None else self.last.eta[-1:], it.eta[:-1]))
        check, gap = check_error_condition(it, self.bounds.sigma, prev_eta)
        rows = np.column_stack((it.z_tilde, it.r, np.vecdot(it.r, it.z_tilde), gap))
        self._sums = running_sums(self._sums[-1], rows)  # from the totals after the previous block
        self.last = it
        self.k = int(it.k[-1])
        return check

    def keep(self, n: int):
        """Keep only the first n iterations of the latest block: the state
        becomes the one after its iteration n - 1, as if the rest had never
        been added, with that iteration as a block of one row.  The kept rows
        are copies (:func:`row_of`), so the block's arrays are freed."""
        i = slice(n - 1, n)
        self.last = row_of(self.last, i)
        self.k = int(self.last.k[0])
        self._sums = self._sums[i].copy()

    # -- at the current iteration k (each iteration of the latest block) ------

    def require_iterate(self):
        if self.last is None:
            raise ValueError("no iterate yet: certificates start at k = 1")

    def ergodic_point(self):
        """Ergodic averages (z~^a_k, r^a_k, eps^a_k) from the running sums."""
        self.require_iterate()
        k, d, sums = self.last.k, len(self.z0), self._sums
        kc = k[:, None]  # divides each row by its k
        zt_a, r_a = sums[:, :d] / kc, sums[:, d : 2 * d] / kc
        eps_a = sums[:, 2 * d] / k - np.vecdot(r_a, zt_a)
        return zt_a, r_a, eps_a

    def fejer_check(self, z_star: np.ndarray) -> BoundCheck:
        """Metric-drift Fejer bound against a (near-)solution z_star:

            ||z*-z_k||^2_{M_k} + eta_k + (1-sigma) sum_i ||z_{i-1}-z~_i||^2_{M_i}
                <= C_P (||z*-z_0||^2_{M_0} + eta_0).

        The right-hand side is ``bounds.fejer_rhs()``, so ``bounds.d0`` must be
        ||z*-z_0||_{M_0} for this z_star; on the ADMM path z_star is the
        reference solution that d0 is computed from.
        """
        self.require_iterate()
        it_k = self.last
        lhs = (
            it_k.M.seminorm(np.asarray(z_star, dtype=float) - it_k.z) ** 2
            + it_k.eta + (1.0 - self.bounds.sigma) * self._sums[:, -1]
        )
        return BoundCheck("fejer", it_k.k, lhs, self.bounds.fejer_rhs(), tol_abs=1e-8, tol_rel=1e-6)

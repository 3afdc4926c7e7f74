"""Relative-error inexact proximal-point driver for monotone inclusions.

This module does not compute steps for a monotone operator T: it certifies
iteration triples handed to it by an instance (the proximal ADMM solver, or
a test double).  For each accepted triple it checks the relative error
condition in the iteration's seminorm, and it keeps the running ergodic and
Fejer accumulators of the run; the rate bounds come from :class:`RateBounds`.
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
]

_RECON_TOL = 1e-10
_ERROR_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class HpeIterate:
    """One accepted iteration: points, residual with tracked preimage, slack.

    ``preimage`` is z_{k-1} - z_k, so the residual is r_k = M_k(preimage)
    and its dual seminorm equals the seminorm of the preimage.  The four
    vectors must have M's dimension.
    """

    k: int
    z: np.ndarray
    z_tilde: np.ndarray
    r: np.ndarray
    preimage: np.ndarray
    eta: float
    M: object  # PsdOperator or BlockDiagOperator

    def __post_init__(self):
        shape = (self.M.dim,)
        if not self.z.shape == self.z_tilde.shape == self.r.shape == self.preimage.shape == shape:
            raise ValueError(f"iterate vectors must have shape {shape}, the dimension of M_k")

    @property
    def z_prev(self) -> np.ndarray:
        return self.z + self.preimage


@dataclass(slots=True)
class BoundCheck:
    """``lhs <= rhs`` up to ``tol_abs + tol_rel |rhs|``; ``slack`` and the
    verdict ``ok`` are fixed when the check is made."""

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
        self.ok = bool(slack >= -self.tol_abs - self.tol_rel * abs(self.rhs))


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

    def pointwise_rhs(self, k: int) -> float:
        num = 2.0 * (1.0 + self.sigma) * self.C_P * (self.d0**2 + self.eta0)
        num += 2.0 * (1.0 - self.sigma) * self.eta0
        return float(np.sqrt(num / ((1.0 - self.sigma) * k)))

    def ergodic_res_rhs(self, k: int) -> float:
        return float(self.E * np.sqrt(self.d0**2 + self.eta0) / k)

    def ergodic_eps_rhs(self, k: int) -> float:
        return float(self.E_hat * (self.d0**2 + self.eta0) / k)

    def fejer_rhs(self) -> float:
        """C_P (d0^2 + eta_0): the Fejer bound when d0 is the M_0-distance
        from z_0 to the z* being checked."""
        return float(self.C_P * (self.d0**2 + self.eta0))


def check_error_condition(it: HpeIterate, sigma: float, prev_eta: float) -> tuple[BoundCheck, float]:
    """Relative error condition in the iteration seminorm:

        ||z_k - z~_k||^2_{M_k} + eta_k <= sigma ||z_{k-1} - z~_k||^2_{M_k} + eta_{k-1}.

    Returns the ``"hpe"`` check and ``gap`` = ||z_{k-1} - z~_k||^2_{M_k}, the
    term the right-hand side scales by sigma and the k-th summand of the
    Fejer sum.
    """
    lhs = it.M.seminorm(it.z - it.z_tilde) ** 2 + it.eta
    gap = it.M.seminorm(it.z_prev - it.z_tilde) ** 2
    check = BoundCheck("hpe", it.k, lhs, sigma * gap + prev_eta, tol_abs=_ERROR_TOL, tol_rel=_ERROR_TOL)
    return check, gap


class HpeState:
    """A single run: start point, rate bounds (which carry sigma and eta_0),
    the latest iterate and the running accumulators.

    The ergodic point and the Fejer check describe the current iteration
    only; they are computed from accumulators, so no per-iteration history
    is kept.
    """

    def __init__(self, z0: np.ndarray, bounds: RateBounds):
        self.z0 = np.asarray(z0, dtype=float)
        self.bounds = bounds
        self.k = 0
        self.last: HpeIterate | None = None
        # ergodic accumulators
        self._sum_ztilde = np.zeros_like(self.z0)
        self._sum_r = np.zeros_like(self.z0)
        self._sum_r_dot_ztilde = 0.0
        # Fejer accumulator: sum of ||z_{i-1} - z~_i||^2_{M_i}
        self._fejer_sum = 0.0

    @property
    def last_eta(self) -> float:
        return self.bounds.eta0 if self.last is None else self.last.eta

    def add_iterate(self, it: HpeIterate) -> BoundCheck:
        """Validate and absorb one iteration; returns the error-condition check.

        Raises on structural defects (bad index, residual not matching its
        preimage); the relative error check itself is reported, not raised.
        """
        if it.k != self.k + 1:
            raise ValueError(f"iterate index {it.k} is not contiguous (expected {self.k + 1})")
        if it.eta < 0.0:
            raise ValueError("eta must be nonnegative")
        miss = it.M.apply(it.preimage) - it.r  # M_k (z_{k-1} - z_k), formed independently of r
        if np.sqrt(miss @ miss) > _RECON_TOL * (1.0 + np.sqrt(it.r @ it.r)):
            raise ValueError("residual does not equal M_k(z_{k-1} - z_k) within tolerance")
        check, gap = check_error_condition(it, self.bounds.sigma, self.last_eta)
        self.k, self.last = it.k, it
        self._sum_ztilde += it.z_tilde
        self._sum_r += it.r
        self._sum_r_dot_ztilde += float(it.r @ it.z_tilde)
        self._fejer_sum += gap
        return check

    # -- at the current iteration k -------------------------------------------

    def require_iterate(self):
        if self.last is None:
            raise ValueError("no iterate yet: certificates start at k = 1")

    def ergodic_point(self):
        """Ergodic averages (z~^a_k, r^a_k, eps^a_k) via the accumulators."""
        self.require_iterate()
        k = self.k
        zt_a = self._sum_ztilde / k
        r_a = self._sum_r / k
        eps_a = self._sum_r_dot_ztilde / k - float(r_a @ zt_a)
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
            + it_k.eta + (1.0 - self.bounds.sigma) * self._fejer_sum
        )
        return BoundCheck("fejer", self.k, lhs, self.bounds.fejer_rhs(), tol_abs=1e-8, tol_rel=1e-6)

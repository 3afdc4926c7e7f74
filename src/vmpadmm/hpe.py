"""Relative-error inexact proximal-point driver for monotone inclusions.

This module does not compute steps for a monotone operator T: it certifies
iteration triples handed to it by an instance (the proximal ADMM solver, or
a test double).  For each accepted triple it checks the relative error
condition in the iteration's seminorm, and it maintains the running
pointwise and ergodic certificates together with their theoretical rate
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HpeIterate",
    "HpeState",
    "RateBounds",
    "ErrorCheck",
    "BoundCheck",
    "MembershipReport",
    "check_error_condition",
    "transportation_check",
]

_RECON_TOL = 1e-10
_ERROR_TOL = 1e-8


@dataclass(frozen=True)
class HpeIterate:
    """One accepted iteration: points, residual with tracked preimage, slack.

    ``preimage`` is z_{k-1} - z_k, so the residual is r_k = M_k(preimage)
    and its dual seminorm equals the seminorm of the preimage.
    """

    k: int
    z: np.ndarray
    z_tilde: np.ndarray
    r: np.ndarray
    preimage: np.ndarray
    eta: float
    M: object  # PsdOperator or BlockDiagOperator

    @property
    def z_prev(self) -> np.ndarray:
        return self.z + self.preimage


@dataclass
class ErrorCheck:
    """Outcome of the per-iteration relative error condition."""

    k: int
    lhs: float
    rhs: float
    tol: float = _ERROR_TOL

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        return self.slack >= -self.tol * (1.0 + self.rhs)


@dataclass
class BoundCheck:
    name: str
    k: int
    lhs: float
    rhs: float
    tol_abs: float = 0.0
    tol_rel: float = 1e-6

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        return self.slack >= -self.tol_abs - self.tol_rel * abs(self.rhs)


@dataclass
class MembershipReport:
    samples: int
    violations: int
    worst_margin: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


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


def check_error_condition(
    it: HpeIterate, sigma: float, prev_eta: float, tol: float = _ERROR_TOL
) -> ErrorCheck:
    """Relative error condition in the iteration seminorm:

        ||z_k - z~_k||^2_{M_k} + eta_k <= sigma ||z_{k-1} - z~_k||^2_{M_k} + eta_{k-1}.
    """
    lhs = it.M.seminorm(it.z - it.z_tilde) ** 2 + it.eta
    rhs = sigma * it.M.seminorm(it.z_prev - it.z_tilde) ** 2 + prev_eta
    return ErrorCheck(k=it.k, lhs=lhs, rhs=rhs, tol=tol)


class HpeState:
    """A single run: frozen inputs, the latest iterate, running accumulators.

    Certificates are available at the current iteration only; they are
    computed from accumulators, so no per-iteration history is kept.
    """

    def __init__(self, z0: np.ndarray, sigma: float, eta0: float, M0, bounds: RateBounds):
        if not 0.0 <= sigma < 1.0:
            raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
        if eta0 < 0.0:
            raise ValueError("eta0 must be nonnegative")
        self.z0 = np.asarray(z0, dtype=float)
        self.sigma = float(sigma)
        self.eta0 = float(eta0)
        self.M0 = M0
        self.bounds = bounds
        self.k = 0
        self.last: HpeIterate | None = None
        # ergodic accumulators
        self._sum_ztilde = np.zeros_like(self.z0)
        self._sum_r = np.zeros_like(self.z0)
        self._sum_r_dot_ztilde = 0.0
        # pointwise best residual (dual norm) and its index
        self._best_index = 0
        self._best_dual = np.inf
        # Fejer accumulator: sum of ||z_{i-1} - z~_i||^2_{M_i}
        self._fejer_sum = 0.0

    @property
    def last_eta(self) -> float:
        return self.eta0 if self.last is None else self.last.eta

    def add_iterate(self, it: HpeIterate) -> ErrorCheck:
        """Validate and absorb one iteration; returns the error-condition check.

        Raises on structural defects (bad index, residual not matching its
        preimage); the relative error check itself is reported, not raised.
        """
        if it.k != self.k + 1:
            raise ValueError(f"iterate index {it.k} is not contiguous (expected {self.k + 1})")
        if it.eta < 0.0:
            raise ValueError("eta must be nonnegative")
        recon = it.M.apply(it.preimage)
        if np.linalg.norm(recon - it.r) > _RECON_TOL * (1.0 + np.linalg.norm(it.r)):
            raise ValueError("residual does not equal M_k(z_{k-1} - z_k) within tolerance")
        check = check_error_condition(it, self.sigma, self.last_eta)
        self.k, self.last = it.k, it
        self._sum_ztilde += it.z_tilde
        self._sum_r += it.r
        self._sum_r_dot_ztilde += float(it.r @ it.z_tilde)
        dual = it.M.seminorm(it.preimage)
        if dual < self._best_dual:
            self._best_dual, self._best_index = dual, it.k
        self._fejer_sum += it.M.seminorm(it.z_prev - it.z_tilde) ** 2
        return check

    # -- certificates at the current iteration k -----------------------------

    def _require_iterate(self):
        if self.last is None:
            raise ValueError("no iterate yet: certificates start at k = 1")

    def pointwise_certificate(self):
        """(best_i, best dual residual norm, theoretical bound at k).

        The best index is the argmin of ||r_i||*_{M_i} over i <= k, computed
        through the tracked preimage; smallest index wins ties.
        """
        self._require_iterate()
        return self._best_index, self._best_dual, self.bounds.pointwise_rhs(self.k)

    def ergodic_point(self):
        """Ergodic averages (z~^a_k, r^a_k, eps^a_k) via the accumulators."""
        self._require_iterate()
        k = self.k
        zt_a = self._sum_ztilde / k
        r_a = self._sum_r / k
        eps_a = self._sum_r_dot_ztilde / k - float(r_a @ zt_a)
        return zt_a, r_a, eps_a

    def ergodic_certificate(self):
        """Ergodic averages, their dual residual norm at M_k, and bound checks.

        Returns (z~^a, r^a, eps^a, dual_res, checks) where checks is a dict of
        BoundCheck for the residual bound, the eps bound and eps nonnegativity.
        The dual norm uses the pseudo-inverse path because r^a averages images
        under different metrics and carries no single preimage; an off-range
        average is flagged as +inf, not fatal.
        """
        zt_a, r_a, eps_a = self.ergodic_point()
        k = self.k
        dual_res = self.last.M.dual_seminorm_general(r_a)
        scale = 1.0 + abs(eps_a)
        checks = {
            "ergodic_res": BoundCheck("ergodic_res", k, dual_res, self.bounds.ergodic_res_rhs(k)),
            "ergodic_eps": BoundCheck("ergodic_eps", k, eps_a, self.bounds.ergodic_eps_rhs(k)),
            "eps_nonneg": BoundCheck(
                "eps_nonneg", k, -eps_a, 0.0, tol_abs=1e-10 * scale, tol_rel=0.0
            ),
        }
        return zt_a, r_a, eps_a, dual_res, checks

    def fejer_check(self, z_star: np.ndarray) -> BoundCheck:
        """Metric-drift Fejer bound against a (near-)solution z_star:

            ||z*-z_k||^2_{M_k} + eta_k + (1-sigma) sum_i ||z_{i-1}-z~_i||^2_{M_i}
                <= C_P (||z*-z_0||^2_{M_0} + eta_0).
        """
        self._require_iterate()
        z_star = np.asarray(z_star, dtype=float)
        it_k = self.last
        lhs = it_k.M.seminorm(z_star - it_k.z) ** 2 + it_k.eta + (1.0 - self.sigma) * self._fejer_sum
        rhs = self.bounds.C_P * (self.M0.seminorm(z_star - self.z0) ** 2 + self.eta0)
        return BoundCheck("fejer", self.k, lhs, rhs, tol_abs=1e-8, tol_rel=1e-6)


def transportation_check(
    oracle,
    z_tilde_a: np.ndarray,
    r_a: np.ndarray,
    eps_a: float,
    sample_count: int = 1000,
    rng: np.random.Generator | None = None,
    tol: float = 1e-9,
) -> MembershipReport:
    """Sampled enlargement-membership check of (z~^a, r^a, eps^a).

    ``oracle(rng)`` must return a graph pair (z', v') with v' in T(z').
    Membership requires <r^a - v', z~^a - z'> >= -eps_a for every pair; we
    verify this on ``sample_count`` sampled pairs and report the worst margin.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    worst = np.inf
    violations = 0
    for _ in range(sample_count):
        z_p, v_p = oracle(rng)
        margin = float((r_a - v_p) @ (z_tilde_a - z_p)) + eps_a
        worst = min(worst, margin)
        if margin < -tol * (1.0 + abs(eps_a)):
            violations += 1
    return MembershipReport(sample_count, violations, worst)

"""Variable-metric proximal ADMM with per-iteration certification.

The solver alternates an x-subproblem under the metric R_k, a y-subproblem
under S_k, and an over-relaxed multiplier update with stepsize theta and
penalty metric H_k.  Every iteration is embedded into the relative-error
proximal-point driver (:mod:`vmpadmm.hpe`): the embedding constants
(sigma, tau, eta_k) are computed here, and the pointwise / ergodic KKT
residual certificates with their theoretical rate bounds are exposed at the
current k.  :meth:`VmPadmmRun.certified_steps` is the one solve loop: it steps,
certifies and applies the stopping rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hpe import BoundCheck, HpeIterate, HpeState, RateBounds
from .linalg import BlockDiagOperator, block_diag
from .problems import ProblemSpec, ReferenceSolution, reference_solve
from .schedule import THETA_MAX, MetricSchedule, ScheduleError, assemble_Mk

__all__ = [
    "ThetaParams",
    "AdmmIterate",
    "KktResidualCertificate",
    "CertifiedStep",
    "SubproblemError",
    "BlockSystem",
    "compute_sigma_theta",
    "sigma_feasible",
    "tau_theta",
    "compute_d0_admm",
    "eps_subdifferential_checks",
    "VmPadmmRun",
]

_SQRT2 = np.sqrt(2.0)
_MEMBERSHIP_TOL = 1e-8
_THETA_EXCLUSION = 1e-12
_SIGMA_GRID = 10_000  # points of the uniform scan in compute_sigma_theta


class SubproblemError(RuntimeError):
    """A subproblem is singular or cannot be reduced to a supported form."""


# -- theta-dependent constants -----------------------------------------------

def sigma_feasible(theta: float, sigma: float | np.ndarray) -> bool | np.ndarray:
    """All four admissibility conditions for the error parameter sigma:
    the 2x2 comparison matrix is positive definite, and both strict scalar
    inequalities hold.  Elementwise over an array of sigma."""
    a = sigma * (1.0 + theta) - 1.0
    d = sigma - (1.0 - theta) ** 2
    off = (sigma + theta - 1.0) * (1.0 - theta)
    det = a * d - off * off
    floor = max((1.0 - theta) ** 2, 1.0 - theta, 1.0 / (1.0 + theta))
    return (
        (a > 0.0) & (det > 0.0) & (sigma > floor)
        & ((sigma + theta - 1.0) * (4.0 - 2.0 * _SQRT2) / (_SQRT2 * theta) < sigma)
    )


def tau_theta(theta: float, sigma: float) -> float:
    return 8.0 * (sigma + theta - 1.0) * max(1.0, theta / (2.0 - theta)) / theta**1.5


@dataclass(frozen=True)
class ThetaParams:
    """Stepsize theta with its admissible error parameter and slack inflation.

    sigma is the minimal feasible value plus a safety margin; tau feeds the
    initial slack eta_0 = tau * d0^2.
    """

    theta: float
    sigma: float
    tau: float
    margin: float = 1e-3

    def __post_init__(self):
        if not (_THETA_EXCLUSION < self.theta < THETA_MAX - _THETA_EXCLUSION):
            raise ValueError(f"theta must lie strictly inside (0, {THETA_MAX}), got {self.theta}")
        if not (0.0 < self.sigma < 1.0):
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")
        if not sigma_feasible(self.theta, self.sigma):
            raise ValueError(f"sigma={self.sigma} violates the admissibility conditions")
        expected = tau_theta(self.theta, self.sigma)
        if abs(self.tau - expected) > 1e-10 * (1.0 + expected):
            raise ValueError("tau does not match its defining formula")


def compute_sigma_theta(theta: float, margin: float = 1e-3) -> ThetaParams:
    """Minimal admissible sigma for a given theta, plus a safety margin.

    Scans a uniform grid over (0, 1) for the smallest feasible point, then
    bisects the feasibility boundary below it to 1e-10 before shifting up
    by ``margin``.
    """
    if not (_THETA_EXCLUSION < theta < THETA_MAX - _THETA_EXCLUSION):
        raise ValueError(f"theta must lie strictly inside (0, {THETA_MAX}), got {theta}")
    if not (np.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"sigma margin must be finite and >= 0, got {margin}")
    sigmas = np.arange(1, _SIGMA_GRID + 1) / (_SIGMA_GRID + 1.0)
    feasible = sigma_feasible(theta, sigmas)
    if not feasible.any():
        raise RuntimeError(f"no admissible sigma found for theta={theta}")
    feasible_idx = int(np.argmax(feasible))
    hi = float(sigmas[feasible_idx])
    lo = float(sigmas[feasible_idx - 1]) if feasible_idx > 0 else 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if sigma_feasible(theta, mid):
            hi = mid
        else:
            lo = mid
    sigma = hi + margin
    if sigma >= 1.0:
        raise RuntimeError(f"minimal sigma {hi} plus margin {margin} leaves (0, 1)")
    if not sigma_feasible(theta, sigma):
        raise RuntimeError(f"internal error: sigma={sigma} infeasible after refinement")
    return ThetaParams(theta=theta, sigma=sigma, tau=tau_theta(theta, sigma), margin=margin)


# -- subproblem machinery ------------------------------------------------------

_EPS = np.finfo(float).eps


class BlockSystem:
    """The quadratic part of one subproblem block of a run, paired with the
    run's schedule so that H_k, P_k and the drift factor f_k come from one
    place:

        G_k = N^T H_k N + P_k = f_k K + tau I     (``MetricSchedule.system_base``)
        T_k = G_k + Q                            (Q from a quadratic f or g, else 0)

    Write T_k = f_k K + C with C = tau I + Q.  K and C are PSD, so every T_k
    with f_k > 0 has the range of T_1 = K + C.  A basis W of that range with
    W^T T_1 W = I and W^T K W = diag(a), a in [0, 1], gives
    W^T T_k W = diag(1 + (f_k - 1) a) for every f_k: the pencil (K, T_1) is
    diagonalized once per run, whatever C is.  A solve is two matrix-vector
    products and a division, and gives the minimum-norm solution when T_k is
    singular.  K and Q stay formed: the residual and optimality checks
    multiply by them, never by the basis.  An l1 or box block needs G_k
    diagonal and is solved in closed form.
    """

    def __init__(self, desc, N: np.ndarray, schedule: MetricSchedule, family: str):
        self.desc, self.N, self.schedule = desc, N, schedule
        self._index = "HRS".index(family)
        with np.errstate(over="ignore", invalid="ignore"):
            self.K, self.tau = schedule.system_base(N, family)
        if self.K is not None and not np.isfinite(self.K).all():
            block, M = ("x", "A") if family == "R" else ("y", "B")
            raise SubproblemError(f"{block}-subproblem system {M}^T H_0 {M} + {family}_0 overflows")
        self.Q = desc.Q if desc.kind == "quadratic" else None
        self._basis = None  # (W, a), formed on the first solve
        if desc.kind in ("l1", "box") and self.K is not None:
            K = self.K
            scale = max(1.0, float(np.abs(K).max(initial=0.0)))
            offdiag = np.abs(K - np.diag(np.diag(K))).max(initial=0.0)
            if offdiag > 1e-10 * scale:
                raise SubproblemError(
                    f"{desc.kind} subproblem needs a diagonal quadratic part; "
                    f"off-diagonal magnitude {offdiag} (choose a linearizing metric)"
                )

    def metrics(self, k: int):
        """(H_k, P_k, f_k) from the schedule."""
        ops = self.schedule.realize(k)
        return ops[0], ops[self._index], self.schedule.factor(k)

    def metric_apply(self, f: float, u: np.ndarray) -> np.ndarray:
        """G_k u at f_k = f."""
        if self.K is None:
            return self.tau * u
        Gu = f * (self.K @ u)
        return Gu + self.tau * u if self.tau else Gu

    def solve(self, f: float, q_lin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """argmin desc(u) + 0.5 u^T G_k u + q_lin^T u at f_k = f, and G_k u."""
        desc = self.desc
        if desc.kind in ("zero", "quadratic"):
            rhs = -q_lin if desc.kind == "zero" else -(q_lin + desc.q)
            if self._basis is None:
                self._basis = self._factor()
            W, a = self._basis
            u = W @ ((W.T @ rhs) / (1.0 + (f - 1.0) * a))
            Gu = self.metric_apply(f, u)
            Tu = Gu if self.Q is None else Gu + self.Q @ u
            if np.linalg.norm(Tu - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
                raise SubproblemError("subproblem quadratic part is singular")
            return u, Gu
        d = np.full(len(q_lin), self.tau) if self.K is None else f * np.diag(self.K) + self.tau
        if np.any(d <= 0):
            raise SubproblemError(f"{desc.kind} subproblem needs positive diagonal curvature")
        if desc.kind == "l1":
            t = -q_lin
            u = np.sign(t) * np.maximum(np.abs(t) - desc.lam, 0.0) / d
        else:
            u = np.clip(-q_lin / d, desc.lower, desc.upper)
        return u, self.metric_apply(f, u)

    def _factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, a): W whitens T_1 = K + tau I + Q on its numerical range, cut
        off as by ``lstsq``, and W^T K W = diag(a)."""
        n = self.desc.dim
        T = np.zeros((n, n)) if self.K is None else self.K
        if self.tau:
            T = T + self.tau * np.eye(n)
        w, V = np.linalg.eigh(T if self.Q is None else T + self.Q)
        i = int(np.searchsorted(w, _EPS * n * max(float(w[-1]), 0.0), side="right"))
        W = V[:, i:] / np.sqrt(w[i:])  # eigh sorts w ascending: the range is the trailing columns
        if self.K is None:
            return W, np.zeros(n - i)
        a, U = np.linalg.eigh(W.T @ self.K @ W)
        return W @ U, a


def _solve_block(system: BlockSystem, k: int, shift, gamma_prev, prev, name):
    """argmin desc(u) - <gamma_prev, N u> + 0.5||N u + shift||^2_{H_k}
    + 0.5||u - prev||^2_{P_k} for the block ``system`` at iteration k;
    verifies first-order optimality via the oracle of ``desc``."""
    H_k, P_k, f = system.metrics(k)
    N, desc = system.N, system.desc
    q_lin = -N.T @ gamma_prev + N.T @ H_k.apply(shift) - P_k.apply(prev)
    u, Gu = system.solve(f, q_lin)
    v = -(Gu + q_lin)
    scale = 1.0 + np.linalg.norm(v)
    dist = desc.membership_distance(v, u)
    if dist > _MEMBERSHIP_TOL * scale:
        raise SubproblemError(f"{name}-subproblem optimality violated: distance {dist}")
    return u


def solve_x_subproblem(problem, x_prev, y_prev, gamma_prev, system: BlockSystem, k: int):
    """Exact x-update at iteration k under (f, A, R_k); ``system`` is the
    x-block's :class:`BlockSystem`."""
    B, b = problem.B, problem.b
    return _solve_block(system, k, B @ y_prev - b, gamma_prev, x_prev, "x")


def solve_y_subproblem(problem, x_k, y_prev, gamma_prev, system: BlockSystem, k: int):
    """Exact y-update; mirror of the x-update with (g, B, S_k)."""
    A, b = problem.A, problem.b
    return _solve_block(system, k, A @ x_k - b, gamma_prev, y_prev, "y")


def update_multiplier(problem, gamma_prev, H_k, theta, x_k, y_k, y_prev):
    """Over-relaxed multiplier update and the extragradient multiplier:

        gamma_k = gamma_{k-1} - theta H_k (A x_k + B y_k - b)
        gamma~_k = gamma_{k-1} - H_k (A x_k + B y_{k-1} - b)
    """
    A, B, b = problem.A, problem.B, problem.b
    gamma_k = gamma_prev - theta * H_k.apply(A @ x_k + B @ y_k - b)
    gamma_t = gamma_prev - H_k.apply(A @ x_k + B @ y_prev - b)
    return gamma_k, gamma_t


@dataclass
class AdmmIterate:
    """One iteration with its residual triple and seminorm bookkeeping."""

    k: int
    x: np.ndarray
    y: np.ndarray
    gamma: np.ndarray
    gamma_tilde: np.ndarray
    dx: np.ndarray  # x_{k-1} - x_k, preimage of r_x under R_k
    dy: np.ndarray
    dgamma: np.ndarray
    r_x: np.ndarray
    r_y: np.ndarray
    r_gamma: np.ndarray
    dual_x: float
    dual_y: float
    dual_gamma: float
    eta: float
    hpe_check: BoundCheck
    memberships: dict  # membership_x/_y: s_x in df(x_k), s_y in dg(y_k)
    M: object  # M_k, the product-space metric of this iteration

    @property
    def dual_max(self) -> float:
        return max(self.dual_x, self.dual_y, self.dual_gamma)


@dataclass
class KktResidualCertificate:
    """A pointwise or ergodic KKT residual certificate at iteration k."""

    mode: str
    k: int
    index: int  # certified iterate index (pointwise) or k (ergodic)
    x: np.ndarray
    y: np.ndarray
    gamma_tilde: np.ndarray
    r_x: np.ndarray
    r_y: np.ndarray
    r_gamma: np.ndarray
    dual_x: float
    dual_y: float
    dual_gamma: float
    bound_residual: float
    eps_x: float = 0.0
    eps_y: float = 0.0
    bound_eps: float = 0.0
    checks: dict = field(default_factory=dict)  # rate bounds and identities
    memberships: dict = field(default_factory=dict)  # (eps-)subdifferential memberships

    @property
    def dual_max(self) -> float:
        return max(self.dual_x, self.dual_y, self.dual_gamma)


def compute_d0_admm(
    problem: ProblemSpec,
    z_star: tuple[np.ndarray, np.ndarray, np.ndarray],
    M0: BlockDiagOperator,
    x0=None,
    y0=None,
    gamma0=None,
) -> float:
    """Distance in the metric M_0 (see :func:`assemble_Mk`) from the initial
    point to one solution.

    Upper-bounds the infimum over the whole solution set; every rate bound
    is increasing in this quantity, so the bounds stay valid.
    """
    n_x, n_y, m = problem.dims
    x0 = np.zeros(n_x) if x0 is None else np.asarray(x0, float)
    y0 = np.zeros(n_y) if y0 is None else np.asarray(y0, float)
    gamma0 = np.zeros(m) if gamma0 is None else np.asarray(gamma0, float)
    return M0.seminorm(np.concatenate([x0, y0, gamma0]) - np.concatenate(z_star))


def _membership(name: str, k: int, lhs: float, rhs: float, scale: float) -> BoundCheck:
    """lhs <= rhs up to ``_MEMBERSHIP_TOL`` times the magnitude ``scale``."""
    return BoundCheck(name, k, lhs, rhs, tol_abs=_MEMBERSHIP_TOL * scale, tol_rel=0.0)


def eps_subdifferential_checks(desc, s, u, eps: float, k: int, block: str) -> dict:
    """s in the eps-subdifferential of ``desc`` at u, decided exactly by
    :meth:`FunctionDescriptor.fenchel_young`: ``eps_subdiff_<block>`` checks
    gap <= eps, ``eps_domain_<block>`` that the distance from the domain is 0."""
    gap, off = desc.fenchel_young(s, u)
    return {
        f"eps_subdiff_{block}": _membership(f"eps_subdiff_{block}", k, gap, eps, 1.0 + abs(eps) + abs(s @ u)),
        f"eps_domain_{block}": _membership(
            f"eps_domain_{block}", k, off, 0.0, 1.0 + np.linalg.norm(s) + np.linalg.norm(u)
        ),
    }


@dataclass
class CertifiedStep:
    """One iteration with every check of it and the stopping state after it.

    ``fejer`` is the Fejer bound against the reference solution.
    ``first_k_pointwise`` / ``first_k_ergodic`` are the first k at which the
    pointwise / ergodic stopping rule held, or None while it has not.
    """

    iterate: AdmmIterate
    pointwise: KktResidualCertificate
    ergodic: KktResidualCertificate
    fejer: BoundCheck
    first_k_pointwise: int | None
    first_k_ergodic: int | None

    @property
    def checks(self) -> dict[str, list[BoundCheck]]:
        """Every check of this iteration, grouped and ordered as the report's
        ``checks``: ``hpe``, ``bounds``, ``memberships`` and ``fejer``."""
        pw, erg = self.pointwise, self.ergodic
        return {
            "hpe": [self.iterate.hpe_check],
            "bounds": [*pw.checks.values(), *erg.checks.values()],
            "memberships": [*pw.memberships.values(), *erg.memberships.values()],
            "fejer": [self.fejer],
        }

    @property
    def ok(self) -> bool:
        """The iteration's one verdict: every check in every group holds."""
        return all(c.ok for group in self.checks.values() for c in group)


class VmPadmmRun:
    """One solve: sequential state, embedding driver, running certificates."""

    def __init__(
        self,
        problem: ProblemSpec,
        schedule: MetricSchedule,
        theta_params: ThetaParams,
        x0=None,
        y0=None,
        gamma0=None,
        reference: ReferenceSolution | None = None,
    ):
        self.problem = problem
        self.schedule = schedule
        self.params = theta_params
        n_x, n_y, m = problem.dims
        self.x = np.zeros(n_x) if x0 is None else np.asarray(x0, float).copy()
        self.y = np.zeros(n_y) if y0 is None else np.asarray(y0, float).copy()
        self.gamma = np.zeros(m) if gamma0 is None else np.asarray(gamma0, float).copy()

        report = schedule.validate()  # every k at once; an operator that is not PSD raises
        if not report.ok_for_admm():
            bad = report.sandwich_failures[:3] or [(k, "c") for k in report.c_over_one[:3]]
            raise ScheduleError(f"schedule validation failed at (k, family) = {bad}")
        self.reference = ref = reference if reference is not None else reference_solve(problem)
        self.z_star = np.concatenate([ref.x, ref.y, ref.gamma])  # the Fejer check's solution
        try:
            self.M0 = assemble_Mk(*schedule.realize(0), problem.B, theta_params.theta)
        except ValueError as exc:
            msg = f"schedule H_0 gives no metric M_0, which holds H_0^-1 / theta: {exc}"
            raise ScheduleError(msg) from exc
        self.d0 = compute_d0_admm(
            problem,
            (ref.x, ref.y, ref.gamma),
            self.M0,
            x0=self.x,
            y0=self.y,
            gamma0=self.gamma,
        )
        self.eta0 = theta_params.tau * self.d0**2
        # the one run state: z~ and r sums, Fejer sum, sigma, eta_0 and bounds
        self.hpe = HpeState(
            np.concatenate([self.x, self.y, self.gamma]),
            RateBounds(self.d0, theta_params.sigma, schedule.C_S, schedule.C_P, eta0=self.eta0),
        )
        self.k = 0
        self._systems = None  # (x, y) BlockSystem, built on the first step
        # running pointwise best: first iterate achieving the min max-residual
        self._best: AdmmIterate | None = None
        # block-wise eps sums, kept apart from the HPE accumulators so the eps
        # decomposition can be cross-checked against the full-space value
        self._dot_sx = 0.0  # sum_i <r_{i,x} + A^T gamma~_i, x_i>
        self._dot_sy = 0.0

    @property
    def bounds(self) -> RateBounds:
        return self.hpe.bounds

    # -- one iteration -----------------------------------------------------

    def step(self) -> AdmmIterate:
        k = self.k + 1
        if k > self.schedule.k_max:
            raise ValueError(f"schedule horizon k_max={self.schedule.k_max} exhausted")
        problem, p, schedule = self.problem, self.params, self.schedule
        if self._systems is None:
            self._systems = (
                BlockSystem(problem.f, problem.A, schedule, "R"),
                BlockSystem(problem.g, problem.B, schedule, "S"),
            )
        x_prev, y_prev, gamma_prev = self.x, self.y, self.gamma

        x_k = solve_x_subproblem(problem, x_prev, y_prev, gamma_prev, self._systems[0], k)
        y_k = solve_y_subproblem(problem, x_k, y_prev, gamma_prev, self._systems[1], k)
        H_k, R_k, S_k = schedule.realize(k)
        gamma_k, gamma_t = update_multiplier(
            problem, gamma_prev, H_k, p.theta, x_k, y_k, y_prev
        )

        f = schedule.factor(k)  # every family moves by f_k: M_k = blkdiag(R_k, f_k mid_0, gam_0 / f_k)
        _, mid0, gam0 = self.M0.blocks
        M_k = self.M0 if f == 1.0 else block_diag([R_k, mid0.scaled(f), gam0.scaled(1.0 / f)])  # f_0 = 1
        R_k, mid_k, gam_k = M_k.blocks
        dx, dy, dg = x_prev - x_k, y_prev - y_k, gamma_prev - gamma_k
        r_x = R_k.apply(dx)
        r_y = mid_k.apply(dy)
        r_g = gam_k.apply(dg)
        primal = problem.A @ x_k + problem.B @ y_k - problem.b
        if np.linalg.norm(r_g - primal) > 1e-12 * (1.0 + np.linalg.norm(primal)) + 1e-13:
            raise RuntimeError("gamma residual identity violated beyond roundoff")

        dual_x, dual_y, dual_g = R_k.seminorm(dx), mid_k.seminorm(dy), gam_k.seminorm(dg)
        eta = (
            (p.sigma - (p.theta - 1.0) ** 2) / p.theta**2 * dual_g**2
            + _SQRT2 * (p.sigma + p.theta - 1.0) / p.theta * S_k.seminorm(dy) ** 2
        )

        z_k = np.concatenate([x_k, y_k, gamma_k])
        zt_k = np.concatenate([x_k, y_k, gamma_t])
        preimage = np.concatenate([dx, dy, dg])
        hpe_it = HpeIterate(
            k=k, z=z_k, z_tilde=zt_k, r=np.concatenate([r_x, r_y, r_g]),
            preimage=preimage, eta=eta, M=M_k,
        )
        check = self.hpe.add_iterate(hpe_it)

        s_x = r_x + problem.A.T @ gamma_t  # the subgradients the memberships test
        s_y = r_y + problem.B.T @ gamma_t
        memberships = {
            name: _membership(name, k, desc.membership_distance(v, u), 0.0, 1.0 + np.linalg.norm(r))
            for name, desc, v, u, r in (
                ("membership_x", problem.f, s_x, x_k, r_x), ("membership_y", problem.g, s_y, y_k, r_y)
            )
        }

        it = AdmmIterate(
            k=k, x=x_k, y=y_k, gamma=gamma_k, gamma_tilde=gamma_t,
            dx=dx, dy=dy, dgamma=dg, r_x=r_x, r_y=r_y, r_gamma=r_g,
            dual_x=dual_x, dual_y=dual_y, dual_gamma=dual_g,
            eta=eta, hpe_check=check, memberships=memberships, M=M_k,
        )
        self.k = k
        if self._best is None or it.dual_max < self._best.dual_max:
            self._best = it
        self._dot_sx += float(s_x @ x_k)
        self._dot_sy += float(s_y @ y_k)
        self.x, self.y, self.gamma = x_k, y_k, gamma_k
        return it

    def certified_steps(self, max_iters: int, rho: float, eps: float):
        """Step up to ``max_iters`` times, but not past the schedule horizon
        k_max, yielding a :class:`CertifiedStep` per iteration.

        Stops after the first k by which both stopping rules have held: the
        pointwise rule res_max <= rho, and the ergodic rule erg_res_max <= rho
        with eps_sum <= eps.
        """
        first_pw = first_erg = None
        for _ in range(min(max_iters, self.schedule.k_max - self.k)):
            it = self.step()
            k = it.k
            pw = self.pointwise_kkt_certificate()
            erg = self.ergodic_kkt_certificate()
            if first_pw is None and pw.dual_max <= rho:
                first_pw = k
            if first_erg is None and erg.dual_max <= rho and erg.eps_x + erg.eps_y <= eps:
                first_erg = k
            yield CertifiedStep(it, pw, erg, self.hpe.fejer_check(self.z_star), first_pw, first_erg)
            if first_pw is not None and first_erg is not None:
                return

    # -- certificates at the current iteration k ---------------------------
    # They come from running accumulators; no per-iteration history is kept.

    def pointwise_kkt_certificate(self) -> KktResidualCertificate:
        """Best single iterate up to k against the O(1/sqrt(k)) bound."""
        self.hpe.require_iterate()
        k, it = self.k, self._best
        bound = self.bounds.pointwise_rhs(k)
        checks = {
            "pointwise_res": BoundCheck("pointwise_res", k, it.dual_max, bound),
        }
        return KktResidualCertificate(
            mode="pointwise", k=k, index=it.k, x=it.x, y=it.y, gamma_tilde=it.gamma_tilde,
            r_x=it.r_x, r_y=it.r_y, r_gamma=it.r_gamma,
            dual_x=it.dual_x, dual_y=it.dual_y, dual_gamma=it.dual_gamma,
            bound_residual=bound, checks=checks, memberships=it.memberships,
        )

    def ergodic_kkt_certificate(self) -> KktResidualCertificate:
        """Ergodic triple at k with ergodic bounds, eps decomposition against
        the full-space accumulator, and the exact eps-subdifferential
        memberships s^a_x in d_{eps_x} f(x^a), s^a_y in d_{eps_y} g(y^a): a
        Fenchel--Young gap at most eps (``eps_subdiff_*``) with s^a (x^a for
        a box) in the domain of that closed form (``eps_domain_*``)."""
        zt_a, r_a, eps_full = self.hpe.ergodic_point()
        k, M_k = self.k, self.hpe.last.M
        x_a, y_a, gt_a = M_k.split(zt_a)
        rx_a, ry_a, rg_a = M_k.split(r_a)
        # block-wise eps from the dot sums kept apart from the HPE accumulators:
        # eps = (1/k) sum <s_i, x_i> - <mean s, mean x>, s_i = r_{i,x} + A^T gamma~_i
        s_a = (rx_a + self.problem.A.T @ gt_a, ry_a + self.problem.B.T @ gt_a)
        eps_x = self._dot_sx / k - float(s_a[0] @ x_a)
        eps_y = self._dot_sy / k - float(s_a[1] @ y_a)
        R_k, mid_k, gam_k = M_k.blocks
        dual_x = R_k.dual_seminorm_general(rx_a)
        dual_y = mid_k.dual_seminorm_general(ry_a)
        dual_g = gam_k.dual_seminorm_general(rg_a)
        bound_res = self.bounds.ergodic_res_rhs(k)
        bound_eps = self.bounds.ergodic_eps_rhs(k)
        scale_x = 1.0 + abs(eps_x)
        scale_y = 1.0 + abs(eps_y)
        checks = {
            "ergodic_res": BoundCheck("ergodic_res", k, max(dual_x, dual_y, dual_g), bound_res),
            "ergodic_eps": BoundCheck("ergodic_eps", k, eps_x + eps_y, bound_eps),
            "eps_x_nonneg": BoundCheck("eps_x_nonneg", k, -eps_x, 0.0, tol_abs=1e-10 * scale_x, tol_rel=0.0),
            "eps_y_nonneg": BoundCheck("eps_y_nonneg", k, -eps_y, 0.0, tol_abs=1e-10 * scale_y, tol_rel=0.0),
            "eps_decomposition": BoundCheck(
                "eps_decomposition", k, abs(eps_full - (eps_x + eps_y)),
                1e-9 * (1.0 + abs(eps_full)), tol_rel=0.0,
            ),
            "primal_avg_identity": BoundCheck(
                "primal_avg_identity", k,
                float(np.linalg.norm(self.problem.A @ x_a + self.problem.B @ y_a - self.problem.b - rg_a)),
                1e-10 * (1.0 + float(np.linalg.norm(rg_a))), tol_rel=0.0,
            ),
        }
        memberships = {
            **eps_subdifferential_checks(self.problem.f, s_a[0], x_a, eps_x, k, "x"),
            **eps_subdifferential_checks(self.problem.g, s_a[1], y_a, eps_y, k, "y"),
        }
        return KktResidualCertificate(
            mode="ergodic", k=k, index=k, x=x_a, y=y_a, gamma_tilde=gt_a,
            r_x=rx_a, r_y=ry_a, r_gamma=rg_a,
            dual_x=dual_x, dual_y=dual_y, dual_gamma=dual_g,
            bound_residual=bound_res, eps_x=eps_x, eps_y=eps_y, bound_eps=bound_eps,
            checks=checks, memberships=memberships,
        )

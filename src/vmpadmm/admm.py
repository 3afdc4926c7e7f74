"""Variable-metric proximal ADMM with per-iteration certification.

The solver alternates an x-subproblem under the metric R_k, a y-subproblem
under S_k, and an over-relaxed multiplier update with stepsize theta and
penalty metric H_k.  Every iteration is embedded into the relative-error
proximal-point driver (:mod:`vmpadmm.hpe`): the embedding constants
(sigma, tau, eta_k) are computed here, and the pointwise / ergodic KKT
residual certificates with their theoretical rate bounds are exposed at the
current k.  :meth:`VmPadmmRun.certified_blocks` is the one solve loop: it
steps, certifies each block of up to ``_BLOCK`` steps in one pass over its
stacked rows at every dimension, and applies the stopping rules;
:meth:`VmPadmmRun.certified_steps` reads it out one iteration at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .hpe import BoundCheck, HpeIterate, HpeState, RateBounds, row_of, running_sums
from .linalg import BlockDiagOperator, block_diag, row_dot
from .problems import ProblemSpec, ReferenceSolution, reference_solve
from .schedule import THETA_MAX, MetricSchedule, ScheduleError, assemble_Mk

__all__ = [
    "ThetaParams",
    "AdmmIterate",
    "KktResidualCertificate",
    "CertifiedStep",
    "CertifiedBlock",
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
# Steps taken before they are certified, all of them in one pass at every
# dimension.  Blocks of 64 rows raised the benchmark's peak RSS by 6.6% at
# n = 400 (lasso 200x100), because the allocator keeps the heap they grow.
_BLOCK = 32


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
        T_k = G_k + Q                            (Q of a quadratic f or g)

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
        if desc.kind == "quadratic":
            rhs = -(q_lin + desc.q)
            if self._basis is None:
                self._basis = self._factor()
            W, a = self._basis
            u = W @ ((W.T @ rhs) / (1.0 + (f - 1.0) * a))
            Gu = self.metric_apply(f, u)
            miss = Gu + desc.Q @ u - rhs
            if np.sqrt(miss @ miss) > 1e-8 * (1.0 + np.sqrt(rhs @ rhs)):
                raise SubproblemError("subproblem quadratic part is singular")
            return u, Gu
        d = np.full(len(q_lin), self.tau) if self.K is None else f * np.diag(self.K) + self.tau
        if (d <= 0).any():
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
        T = self.desc.Q if self.K is None else self.K + self.desc.Q
        if self.tau:
            T = T + self.tau * np.eye(n)
        w, V = np.linalg.eigh(T)
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
    scale = 1.0 + np.sqrt(v @ v)
    dist = desc.membership_distance(v, u)
    if dist > _MEMBERSHIP_TOL * scale:
        raise SubproblemError(f"{name}-subproblem optimality violated: distance {dist}")
    return u


def solve_x_subproblem(problem, x_prev, By_prev, gamma_prev, system: BlockSystem, k: int):
    """Exact x-update at iteration k under (f, A, R_k), given the product
    ``By_prev`` = B y_{k-1}; ``system`` is the x-block's :class:`BlockSystem`."""
    return _solve_block(system, k, By_prev - problem.b, gamma_prev, x_prev, "x")


def solve_y_subproblem(problem, Ax_k, y_prev, gamma_prev, system: BlockSystem, k: int):
    """Exact y-update given ``Ax_k`` = A x_k; mirror of the x-update with
    (g, B, S_k)."""
    return _solve_block(system, k, Ax_k - problem.b, gamma_prev, y_prev, "y")


def update_multiplier(gamma_prev, H_k, theta, primal, primal_t):
    """Over-relaxed multiplier update and the extragradient multiplier, from
    the residuals ``primal`` = A x_k + B y_k - b and ``primal_t`` =
    A x_k + B y_{k-1} - b:

        gamma_k = gamma_{k-1} - theta H_k (A x_k + B y_k - b)
        gamma~_k = gamma_{k-1} - H_k (A x_k + B y_{k-1} - b)
    """
    return gamma_prev - theta * H_k.apply(primal), gamma_prev - H_k.apply(primal_t)


@dataclass(slots=True)
class AdmmIterate:
    """One iteration with its residual triple; a block of iterations is the
    same record with every vector a stack of rows, ``k`` the column of the
    iterations and ``M`` the stack of their metrics.  ``M``, ``eta`` and the
    dual seminorms ||d||_Q = sqrt(<d, r>), from the formed residuals r = Q d,
    are set when the block is certified; a step's own iterate has none."""

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
    M: object = None  # M_k, the product-space metric of this iteration
    eta: float | None = None
    dual_x: float | None = None
    dual_y: float | None = None
    dual_gamma: float | None = None

    @property
    def dual_max(self) -> float:
        return np.maximum(np.maximum(self.dual_x, self.dual_y), self.dual_gamma)


# the fields that fill the blocks of z, z~, z_{k-1} - z_k and r, the stacked rows of a block
_STACKED = ("x", "y", "gamma", "x", "y", "gamma_tilde", "dx", "dy", "dgamma", "r_x", "r_y", "r_gamma")


@dataclass
class KktResidualCertificate:
    """A pointwise or ergodic KKT residual certificate at iteration k, or at
    each iteration of a block (every value then a column or a stack of rows).
    ``eps`` is the ergodic eps^a_k of the HPE accumulators, which
    ``eps_x + eps_y`` decomposes."""

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
    eps: float = 0.0
    checks: dict = field(default_factory=dict)  # rate bounds and identities
    memberships: dict = field(default_factory=dict)  # (eps-)subdifferential memberships

    dual_max = AdmmIterate.dual_max


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
    gap <= eps, ``eps_domain_<block>`` that the distance from the domain is 0.
    Row by row for stacks of points and a column of eps."""
    gap, off = desc.fenchel_young(s, u)
    return {
        f"eps_subdiff_{block}": _membership(
            f"eps_subdiff_{block}", k, gap, eps, 1.0 + np.abs(eps) + np.abs(row_dot(s, u))
        ),
        f"eps_domain_{block}": _membership(
            f"eps_domain_{block}", k, off, 0.0, 1.0 + np.sqrt(row_dot(s, s)) + np.sqrt(row_dot(u, u))
        ),
    }


@dataclass
class CertifiedStep:
    """One iteration with every check of it and the stopping state after it.

    ``hpe_check`` is the relative-error condition, ``memberships`` the
    inclusions of the iterate's subgradients s_x in df(x_k), s_y in dg(y_k),
    and ``fejer`` the Fejer bound against the reference solution.
    ``first_k_pointwise`` / ``first_k_ergodic`` are the first k at which the
    pointwise / ergodic stopping rule held, or None while it has not.
    """

    iterate: AdmmIterate
    hpe_check: BoundCheck
    memberships: dict  # membership_x/_y of this iterate
    pointwise: KktResidualCertificate
    ergodic: KktResidualCertificate
    fejer: BoundCheck
    first_k_pointwise: int | None
    first_k_ergodic: int | None

    @property
    def checks(self) -> dict[str, list[BoundCheck]]:
        """Every check of this iteration, grouped and ordered as the report's
        ``checks``: ``hpe``, ``bounds``, ``memberships`` (those of the
        pointwise best and the ergodic eps-memberships) and ``fejer``."""
        pw, erg = self.pointwise, self.ergodic
        return {
            "hpe": [self.hpe_check],
            "bounds": [*pw.checks.values(), *erg.checks.values()],
            "memberships": [*pw.memberships.values(), *erg.memberships.values()],
            "fejer": [self.fejer],
        }

    @property
    def ok(self) -> bool:
        """The one verdict: every check in every group holds."""
        return all(np.all(c.ok) for group in self.checks.values() for c in group)


@dataclass
class CertifiedBlock(CertifiedStep):
    """Consecutive certified iterations: the fields of a :class:`CertifiedStep`
    with ``iterate`` the stacked rows of the iterations, every check a column
    (one entry per iteration), and ``first_k_*`` the stopping state after the
    last iteration.  :meth:`step` is row i of every record."""

    def __len__(self) -> int:
        return len(self.iterate.k)

    def step(self, i: int) -> CertifiedStep:
        """Iteration i of the block, with the stopping state after it."""
        k = self.iterate.k[i]
        first = (f if f is not None and f <= k else None for f in (self.first_k_pointwise, self.first_k_ergodic))
        records = (row_of(getattr(self, f.name), i) for f in fields(CertifiedStep)[:-2])  # all but first_k_*
        return CertifiedStep(*records, *first)

    def head(self, n: int) -> "CertifiedBlock":
        """The block's first n iterations."""
        return row_of(self, slice(0, n))


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
        self._By = problem.B @ self.y  # B y_{k-1}, which step k reuses

        schedule.validate()  # every k at once; raises ScheduleError before the reference solve
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
        # running pointwise best, the first iterate achieving the min max-residual:
        # its z~ and r and its table row (k, the three dual seminorms and the
        # distance and scale of membership_x and membership_y), with a row of
        # each per iteration while a block is certified
        self._best = None
        # block-wise eps sums, kept apart from the HPE accumulators so the eps
        # decomposition can be cross-checked against the full-space value:
        # sum_i <r_{i,x} + A^T gamma~_i, x_i> and the same for y
        self._dot_s = [0.0, 0.0]

    @property
    def bounds(self) -> RateBounds:
        return self.hpe.bounds

    # -- one iteration -----------------------------------------------------

    def step(self) -> AdmmIterate:
        """One iteration: the two subproblem solves, each checked by its
        optimality oracle, and the multiplier update, checked by the gamma
        residual identity; these fail fast.  Every check against the paper's
        guarantees is made when the step is certified
        (:meth:`certified_blocks`)."""
        k = self.k + 1
        if k > self.schedule.k_max:
            raise ValueError(f"schedule horizon k_max={self.schedule.k_max} exhausted")
        problem, p, schedule = self.problem, self.params, self.schedule
        if self._systems is None:
            self._systems = (
                BlockSystem(problem.f, problem.A, schedule, "R"),
                BlockSystem(problem.g, problem.B, schedule, "S"),
            )
        A, B, b = problem.A, problem.B, problem.b
        x_prev, y_prev, gamma_prev, By_prev = self.x, self.y, self.gamma, self._By

        # each product with A, B and H_k is formed once
        x_k = solve_x_subproblem(problem, x_prev, By_prev, gamma_prev, self._systems[0], k)
        Ax = A @ x_k
        y_k = solve_y_subproblem(problem, Ax, y_prev, gamma_prev, self._systems[1], k)
        By = B @ y_k
        primal = Ax + By - b
        H_k, R_k, _ = schedule.realize(k)
        gamma_k, gamma_t = update_multiplier(gamma_prev, H_k, p.theta, primal, Ax + By_prev - b)

        # every family moves by f_k: M_k = blkdiag(R_k, f_k mid_0, gam_0 / f_k) from M_0
        f, (_, mid0, gam0) = schedule.factor(k), self.M0.blocks
        dx, dy, dg = x_prev - x_k, y_prev - y_k, gamma_prev - gamma_k
        r_g = gam0.affine(0.0, 1.0 / f).apply(dg)
        miss = r_g - primal
        gap, tol = np.sqrt(miss @ miss), 1e-12 * (1.0 + np.sqrt(primal @ primal)) + 1e-13
        if gap > tol:  # r_gamma = (theta H_k)^-1 (gamma_{k-1} - gamma_k) = A x_k + B y_k - b
            msg = f"gamma residual identity violated beyond roundoff at k = {k}: {gap:.3g} > {tol:.3g}"
            raise FloatingPointError(msg)
        r_x, r_y = R_k.apply(dx), mid0.affine(0.0, f).apply(dy)
        self.k = k
        self.x, self.y, self.gamma, self._By = x_k, y_k, gamma_k, By
        return AdmmIterate(k, x_k, y_k, gamma_k, gamma_t, dx, dy, dg, r_x, r_y, r_g)

    def certified_steps(self, max_iters: int, rho: float, eps: float):
        """:meth:`certified_blocks`, one :class:`CertifiedStep` per iteration."""
        for blk in self.certified_blocks(max_iters, rho, eps):
            for i in range(len(blk)):
                yield blk.step(i)

    def certified_blocks(self, max_iters: int, rho: float, eps: float):
        """Step up to ``max_iters`` times, but not past the schedule horizon
        k_max, and certify the steps ``_BLOCK`` at a time: every check of a
        block's iterations is made in one pass over their stacked rows.
        Yields a :class:`CertifiedBlock` per block.

        Stops after the first k by which both stopping rules have held: the
        pointwise rule res_max <= rho, and the ergodic rule erg_res_max <= rho
        with eps_sum <= eps.  The block of that k ends at it: the run's state
        is the one after k, as if the steps past it had not been taken.  A
        step that raises does so after the steps before it are certified, and
        not at all when the rules held among those.
        """
        first = (None, None)
        left = min(max_iters, self.schedule.k_max - self.k)
        while left > 0:
            n, error = 0, None
            # z_k, z~_k, z_{k-1} - z_k and r_k of each step as a row; a step's
            # vectors are copied in here as it is taken and not kept elsewhere
            stacks = np.empty((4, min(_BLOCK, left), self.M0.dim))
            columns = [col for stack in stacks for col in self.M0.split(stack)]
            try:
                for i in range(len(stacks[0])):
                    it = self.step()
                    for col, name in zip(columns, _STACKED):
                        col[i] = getattr(it, name)
                    n, it = i + 1, None
            except Exception as exc:  # raised below, once the steps before it are certified
                error = exc
            left -= n
            if n:
                blk = self._certify(stacks[:, :n], rho, eps, *first)
                first = (blk.first_k_pointwise, blk.first_k_ergodic)
                yield blk
                if None not in first:
                    return
            if error is not None:
                raise error
            del stacks, columns, blk  # the next block's arrays do not sit beside this one's

    def _certify(self, stacks: np.ndarray, rho: float, eps: float, first_pw, first_erg) -> CertifiedBlock:
        """Every check of the consecutive iterations after the last certified
        one, just stepped, in one pass over their ``stacks`` of rows (z, z~,
        z_{k-1} - z_k and r), and the stopping rules on top of the first k at
        which each held so far; commits the run's state through the last
        iteration, or through the first k by which both rules held."""
        problem, p = self.problem, self.params
        k0, n = self.hpe.k + 1, stacks.shape[1]
        ks = np.arange(k0, k0 + n)
        Z, Zt, P, R = stacks
        _, R_rows, S_rows = self.schedule.realize(ks)
        f, (_, mid0, gam0) = self.schedule.factor(ks), self.M0.blocks
        M = block_diag([R_rows, mid0.affine(0.0, f), gam0.affine(0.0, 1.0 / f)])  # each row's M_k, as in step
        dz, rz = M.split(P), M.split(R)
        duals = [Q._seminorm_from(d, r) for Q, d, r in zip(M.blocks, dz, rz)]
        eta = (
            (p.sigma - (p.theta - 1.0) ** 2) / p.theta**2 * duals[2] ** 2
            + _SQRT2 * (p.sigma + p.theta - 1.0) / p.theta * S_rows.seminorm(dz[1]) ** 2
        )
        rows = AdmmIterate(ks, *M.split(Z), M.split(Zt)[2], *dz, *rz, M, eta, *duals)
        hpe_check = self.hpe.add_iterate(HpeIterate(k0, Z, Zt, R, P, eta, M))

        s_x = rows.r_x + rows.gamma_tilde @ problem.A  # the subgradients the memberships test
        s_y = rows.r_y + rows.gamma_tilde @ problem.B
        memberships, table = {}, [ks, *duals]
        for name, desc, s, u, r in (
            ("membership_x", problem.f, s_x, rows.x, rows.r_x), ("membership_y", problem.g, s_y, rows.y, rows.r_y)
        ):
            dist, scale = desc.membership_distance(s, u), 1.0 + np.sqrt(row_dot(r, r))
            memberships[name] = _membership(name, ks, dist, 0.0, scale)
            table += [dist, scale]
        self._dot_s = [running_sums(tot, row_dot(s, u)) for tot, s, u in zip(self._dot_s, (s_x, s_y), (rows.x, rows.y))]
        del s_x, s_y, s  # s views one of them

        # the running pointwise best: at each k, the first iterate of least dual_max
        cands = (Zt, R, np.column_stack(table))
        none_yet = self._best is None
        before = np.inf if none_yet else self._best[2][1:4].max()
        dual_max = rows.dual_max
        better = dual_max < np.minimum.accumulate(np.concatenate(([before], dual_max)))[:-1]
        better[0] |= none_yet
        best = np.maximum.accumulate(np.where(better, np.arange(1, n + 1), 0))  # 0: the best before
        prev = [c[0] for c in cands] if none_yet else self._best  # never picked when none_yet
        self._best = tuple(np.concatenate(([b], c))[best] for b, c in zip(prev, cands))

        pw, erg = self.pointwise_kkt_certificate(), self.ergodic_kkt_certificate()
        fejer = self.hpe.fejer_check(self.z_star)
        held_pw = pw.dual_max <= rho
        held_erg = (erg.dual_max <= rho) & (erg.eps_x + erg.eps_y <= eps)
        if first_pw is None and held_pw.any():
            first_pw = int(ks[held_pw.argmax()])
        if first_erg is None and held_erg.any():
            first_erg = int(ks[held_erg.argmax()])
        end = n if None in (first_pw, first_erg) else max(first_pw, first_erg) - k0 + 1
        blk = CertifiedBlock(rows, hpe_check, memberships, pw, erg, fejer, first_pw, first_erg)

        # commit the state after iteration end - 1 of the block, each kept row a copy
        i = end - 1
        self.hpe.keep(end)
        self._dot_s = [d[i] for d in self._dot_s]
        self._best = tuple(b[i].copy() for b in self._best)
        if ks[i] != self.k:  # steps past it were taken: its state, and its B y_k again as its step formed it
            self.k = int(ks[i])
            self.x, self.y, self.gamma = (v[i].copy() for v in M.split(Z))
            self._By = problem.B @ self.y
        return blk if end == n else blk.head(end)

    # -- certificates at the current iteration k ---------------------------
    # They come from running accumulators; no per-iteration history is kept.
    # While a block is certified, each is a column over the block's iterations.

    def pointwise_kkt_certificate(self) -> KktResidualCertificate:
        """Best single iterate up to k against the O(1/sqrt(k)) bound."""
        self.hpe.require_iterate()
        k, (z_tilde, r, table) = self.hpe.last.ks, self._best
        k_best, dual_x, dual_y, dual_g, dist_x, scale_x, dist_y, scale_y = table.T
        bound, index = self.bounds.pointwise_rhs(k), k_best.astype(int)
        cert = KktResidualCertificate(
            "pointwise", k, index, *self.M0.split(z_tilde), *self.M0.split(r),
            dual_x=dual_x, dual_y=dual_y, dual_gamma=dual_g, bound_residual=bound,
            memberships={  # the best iterate's own
                "membership_x": _membership("membership_x", index, dist_x, 0.0, scale_x),
                "membership_y": _membership("membership_y", index, dist_y, 0.0, scale_y),
            },
        )
        cert.checks["pointwise_res"] = BoundCheck("pointwise_res", k, cert.dual_max, bound)
        return cert

    def ergodic_kkt_certificate(self) -> KktResidualCertificate:
        """Ergodic triple at k with ergodic bounds, eps decomposition against
        the full-space accumulator, and the exact eps-subdifferential
        memberships s^a_x in d_{eps_x} f(x^a), s^a_y in d_{eps_y} g(y^a): a
        Fenchel--Young gap at most eps (``eps_subdiff_*``) with s^a (x^a for
        a box) in the domain of that closed form (``eps_domain_*``)."""
        zt_a, r_a, eps_full = self.hpe.ergodic_point()
        k, M_k = self.hpe.last.ks, self.hpe.last.M
        A, B = self.problem.A, self.problem.B
        x_a, y_a, gt_a = M_k.split(zt_a)
        rx_a, ry_a, rg_a = M_k.split(r_a)
        # block-wise eps from the dot sums kept apart from the HPE accumulators:
        # eps = (1/k) sum <s_i, x_i> - <mean s, mean x>, s_i = r_{i,x} + A^T gamma~_i
        s_a = (rx_a + gt_a @ A, ry_a + gt_a @ B)
        eps_x = self._dot_s[0] / k - row_dot(s_a[0], x_a)
        eps_y = self._dot_s[1] / k - row_dot(s_a[1], y_a)
        R_k, mid_k, gam_k = M_k.blocks
        dual_x = R_k.dual_seminorm_general(rx_a)
        dual_y = mid_k.dual_seminorm_general(ry_a)
        dual_g = gam_k.dual_seminorm_general(rg_a)
        bound_res = self.bounds.ergodic_res_rhs(k)
        bound_eps = self.bounds.ergodic_eps_rhs(k)
        scale_x = 1.0 + np.abs(eps_x)
        scale_y = 1.0 + np.abs(eps_y)
        # r^a_gamma is the primal residual A x^a + B y^a - b of the ergodic point
        miss = x_a @ A.T + y_a @ B.T - self.problem.b - rg_a
        cert = KktResidualCertificate(
            mode="ergodic", k=k, index=k, x=x_a, y=y_a, gamma_tilde=gt_a,
            r_x=rx_a, r_y=ry_a, r_gamma=rg_a,
            dual_x=dual_x, dual_y=dual_y, dual_gamma=dual_g,
            bound_residual=bound_res, eps_x=eps_x, eps_y=eps_y, bound_eps=bound_eps, eps=eps_full,
            memberships={
                **eps_subdifferential_checks(self.problem.f, s_a[0], x_a, eps_x, k, "x"),
                **eps_subdifferential_checks(self.problem.g, s_a[1], y_a, eps_y, k, "y"),
            },
        )
        cert.checks.update({
            "ergodic_res": BoundCheck("ergodic_res", k, cert.dual_max, bound_res),
            "ergodic_eps": BoundCheck("ergodic_eps", k, eps_x + eps_y, bound_eps),
            "eps_x_nonneg": BoundCheck("eps_x_nonneg", k, -eps_x, 0.0, tol_abs=1e-10 * scale_x, tol_rel=0.0),
            "eps_y_nonneg": BoundCheck("eps_y_nonneg", k, -eps_y, 0.0, tol_abs=1e-10 * scale_y, tol_rel=0.0),
            "eps_decomposition": BoundCheck(
                "eps_decomposition", k, np.abs(eps_full - (eps_x + eps_y)),
                1e-9 * (1.0 + np.abs(eps_full)), tol_rel=0.0,
            ),
            "primal_avg_identity": BoundCheck(
                "primal_avg_identity", k,
                np.sqrt(row_dot(miss, miss)), 1e-10 * (1.0 + np.sqrt(row_dot(rg_a, rg_a))), tol_rel=0.0,
            ),
        })
        return cert

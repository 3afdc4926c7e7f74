"""Variable-metric proximal ADMM with per-iteration certification.

The solver alternates an x-subproblem under the metric R_k, a y-subproblem
under S_k, and an over-relaxed multiplier update with stepsize theta and
penalty metric H_k.  Every iteration is embedded into the relative-error
proximal-point driver (:mod:`vmpadmm.hpe`): the embedding constants
(sigma, tau, eta_k) are computed here, and the pointwise / ergodic KKT
residual certificates with their theoretical rate bounds are exposed at the
current k.  :meth:`VmPadmmRun.certified_blocks` is the one solve loop: it
steps, certifies each block of steps in one pass over its stacked rows at
every dimension, and applies the stopping rules; one iteration is a block of
one row, and so is the state after a run.  A block is sized by memory
(:func:`_block_rows`): ``_BLOCK`` = 32 steps from product-space dimension
64 up, and about ``_BLOCK_FLOATS`` floats per stacked row array below it.  A
step forms only the next iterate, keeping each solve's linear term; the pass
checks first that each step of the block is exact (each solve's system test
and optimality oracle, by one product per block for all its rows, and the
gamma residual identity), then the paper's guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hpe import BoundCheck, HpeIterate, HpeState, RateBounds, row_of, running_sums
from .linalg import BlockDiagOperator, _compact, _is_diagonal, _mul, block_diag, congruence
from .problems import ProblemSpec, ReferenceSolution, reference_solve
from .schedule import THETA_MAX, MetricSchedule, ScheduleError, assemble_Mk

__all__ = [
    "ThetaParams",
    "AdmmStep",
    "KktResidualCertificate",
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
# dimension: _block_rows(dim) of them.  At least _BLOCK: blocks of 64 rows
# raised the benchmark's peak RSS by 6.6% at n = 400 (lasso 200x100),
# because the allocator keeps the heap they grow.  Below dimension 64 a block
# holds about _BLOCK_FLOATS floats per stacked row array (102 rows at
# dimension 20, 45 at 45), because there a pass's fixed cost outweighs its
# rows' arithmetic: small_sweep's wall_s fell by 14.5%.  Budgets of 3072 and
# 4096 floats were faster (-18% to -22%, -23%) but read the benchmark's peak
# RSS 7% higher: the benchmark keeps about 0.17 MB per pass, so a faster pass
# reads as a higher peak, while at a matched pass count the 4096 budget
# moved it by 0.3-0.4 MB.
_BLOCK = 32
_BLOCK_FLOATS = 2048


def _block_rows(dim: int) -> int:
    """Steps per certification block at product-space dimension ``dim``
    (n_x + n_y + m); the one place the block length is decided."""
    return max(_BLOCK, _BLOCK_FLOATS // dim)


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

    sigma is the minimal feasible value plus a safety margin; tau, derived
    from both by :func:`tau_theta`, feeds the initial slack eta_0 = tau * d0^2.
    """

    theta: float
    sigma: float
    margin: float = 1e-3

    tau = property(lambda self: tau_theta(self.theta, self.sigma))

    def __post_init__(self):
        if not (_THETA_EXCLUSION < self.theta < THETA_MAX - _THETA_EXCLUSION):
            raise ValueError(f"theta must lie strictly inside (0, {THETA_MAX}), got {self.theta}")
        if not (0.0 < self.sigma < 1.0):
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")
        if not sigma_feasible(self.theta, self.sigma):
            raise ValueError(f"sigma={self.sigma} violates the admissibility conditions")


def compute_sigma_theta(theta: float, margin: float = 1e-3) -> ThetaParams:
    """Minimal admissible sigma for a given theta, plus a safety margin.

    Scans a uniform grid over (0, 1) for the smallest feasible point (when no
    grid point is, the largest float below 1, feasible for every theta in
    range as sigma = 1 is below the golden ratio), then bisects the
    feasibility boundary below it to 1e-10 before shifting up by ``margin``.
    """
    if not (_THETA_EXCLUSION < theta < THETA_MAX - _THETA_EXCLUSION):
        raise ValueError(f"theta must lie strictly inside (0, {THETA_MAX}), got {theta}")
    if not (np.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"sigma margin must be finite and >= 0, got {margin}")
    sigmas = np.arange(1, _SIGMA_GRID + 1) / (_SIGMA_GRID + 1.0)
    feasible = sigma_feasible(theta, sigmas)
    # for theta near 0 and near the golden ratio, sigma is admissible only above the grid
    i = int(np.argmax(feasible)) if feasible.any() else _SIGMA_GRID
    hi = float(sigmas[i]) if i < _SIGMA_GRID else float(np.nextafter(1.0, 0.0))
    lo = float(sigmas[i - 1]) if i > 0 else 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if sigma_feasible(theta, mid):
            hi = mid
        else:
            lo = mid
    sigma = hi + margin
    if sigma >= 1.0:
        raise RuntimeError(f"minimal sigma {hi} plus margin {margin} leaves (0, 1)")
    return ThetaParams(theta=theta, sigma=sigma, margin=margin)


# -- subproblem machinery ------------------------------------------------------

_EPS = np.finfo(float).eps


class BlockSystem:
    """The quadratic part of one subproblem block of a run, paired with the
    run's schedule so that H_k, P_k and the drift factor f_k come from one
    place:

        G_k = N^T H_k N + P_k = f_k K + tau I     (K = N^T H_0 N + P_0 formed here)
        T_k = G_k + Q                            (Q of a quadratic f or g)

    Write T_k = f_k K + C with C = tau I + Q (tau = 0 for a scaled P, and
    K = 0 for a linearized P_k = tau I - N^T H_k N).  K and C are PSD, so every T_k
    with f_k > 0 has the range of T_1 = K + C.  A basis W of that range with
    W^T T_1 W = I and W^T K W = diag(a), a in [0, 1], gives
    W^T T_k W = diag(1 + (f_k - 1) a) for every f_k: the pencil (K, T_1) is
    diagonalized once per run, whatever C is.  A solve is two matrix-vector
    products and a division, and gives the minimum-norm solution when T_k is
    singular.  A T_1 that is exactly diagonal (K and Q diagonal, or K = 0
    under a linearized P) needs no basis: T_k's diagonal
    d_k = f_k diag(K) + tau + diag(Q) divides the right-hand side, and the
    entries of T_1's diagonal cut off as :meth:`_factor` cuts its spectrum
    give u_i = 0, the minimum-norm solution.  An l1 or box block needs G_k
    diagonal and is solved in closed form from the same d_k without Q, which
    construction refuses unless d_1 > 0: d_k is f_k diag(K) for a scaled P
    and tau for a linearized one, with f_k > 0.  A solve forms u alone; K
    and Q stay formed for :meth:`residuals`, which multiplies a block's
    stacked solves by them, never by the basis or the diagonal, when the
    block is certified.

    H_0 (``H0``), N and the proximal family's (P_0, a, s) with
    P_k = a I + s f_k P_0 (``P``, None when it is zero at every k) are kept
    from construction in their :func:`_compact` form, a number for h I and a
    vector for a diagonal, and diag(K) with them, so a step builds no
    operator and multiplies by a diagonal elementwise (:func:`_solve_block`).
    ``N`` itself stays the dense matrix the system was built from.
    """

    def __init__(self, desc, N: np.ndarray, schedule: MetricSchedule, family: str):
        self.desc, self.N, self.schedule = desc, N, schedule
        self.H0, (P, a, s) = _compact(schedule.family("H")[0].matrix), schedule.family(family)
        with np.errstate(over="ignore", invalid="ignore"):  # K = None under a linearized P (s < 0)
            self.K, self.tau = congruence(self.H0, N) + P.matrix if s > 0 else None, a
        if self.K is not None and not np.isfinite(self.K).all():
            block, M = ("x", "A") if family == "R" else ("y", "B")
            raise SubproblemError(f"{block}-subproblem system {M}^T H_0 {M} + {family}_0 overflows")
        self._N = _compact(N)  # what N u multiplies by; N^T u multiplies by _NT
        self._NT = N.T if self._N.ndim == 2 else self._N
        self.P = (_compact(P.matrix), a, s) if a or P.matrix.any() else None
        self._basis = None  # (W, a), formed on the first solve
        self._diag = None if self.K is None else np.diag(self.K)
        self._c = np.full(desc.dim, self.tau)  # the diagonal of C = tau I (+ Q)
        self._range = None  # a diagonal T_1's entries above the cut, or None
        if desc.kind == "quadratic":
            Q = desc.Q
            self._c += np.diag(Q)
            if _is_diagonal(Q) and (self.K is None or _is_diagonal(self.K)):
                t = self._curvature(1.0)  # diag(T_1)
                self._range = t > _EPS * desc.dim * max(float(t.max(initial=0.0)), 0.0)
        elif self.K is not None:
            K = self.K
            scale = max(1.0, float(np.abs(K).max(initial=0.0)))
            offdiag = np.abs(K - np.diag(self._diag)).max(initial=0.0)
            if offdiag > 1e-10 * scale:
                fix = "use a linearized R" if family == "R" else "B^T H_0 B + S_0 must be diagonal"
                raise SubproblemError(
                    f"{desc.kind} subproblem needs a diagonal quadratic part; "
                    f"off-diagonal magnitude {offdiag} ({fix})"
                )
        if desc.kind != "quadratic" and (self._curvature(1.0) <= 0).any():
            raise SubproblemError(f"{desc.kind} subproblem needs positive diagonal curvature")

    def apply_N(self, u: np.ndarray) -> np.ndarray:
        """N u, elementwise for a diagonal N."""
        return _mul(self._N, u)

    def _curvature(self, f: float) -> np.ndarray:
        """diag(T_k) at f_k = f: f_k diag(K) + tau, plus diag(Q) for a
        quadratic block."""
        return self._c if self._diag is None else f * self._diag + self._c

    def metric_apply(self, f: np.ndarray, U: np.ndarray) -> np.ndarray:
        """G_k u for each row u of the stack U, at the column f of its f_k:
        f_k (u K) + tau u."""
        if self.K is None:
            return self.tau * U
        GU = f * (U @ self.K)
        return GU + self.tau * U if self.tau else GU

    def solve(self, f: float, q_lin: np.ndarray) -> np.ndarray:
        """argmin desc(u) + 0.5 u^T G_k u + q_lin^T u at f_k = f.  A
        quadratic solve is checked against its system by :meth:`residuals`
        when its step is certified; an l1 or box solve divides by a diagonal
        curvature that construction found positive."""
        desc = self.desc
        if desc.kind == "quadratic":
            rhs = -(q_lin + desc.q)
            if self._range is not None:  # T_k is diagonal: no division off T_1's range
                return np.divide(rhs, self._curvature(f), out=np.zeros(len(rhs)), where=self._range)
            if self._basis is None:
                self._basis = self._factor()
            W, a = self._basis
            return W @ ((W.T @ rhs) / (1.0 + (f - 1.0) * a))
        d = self._curvature(f)
        if desc.kind == "l1":
            t = -q_lin
            return np.sign(t) * np.maximum(np.abs(t) - desc.lam, 0.0) / d
        return np.clip(-q_lin / d, desc.lower, desc.upper)

    def residuals(self, ks: np.ndarray, U: np.ndarray, Q_lin: np.ndarray):
        """(V, test) of the solves U (a stack of rows) at the iterations ks
        with their linear terms Q_lin, by one product with K (and one with Q)
        for the whole stack.  V = -(G_k u + q_lin) is each solve's residual,
        which lies in d desc(u) exactly when u is optimal (:func:`_oracle`).
        ``test`` is, for a quadratic block, the column of system residuals
        ||G_k u + Q u - rhs|| with rhs = -(q_lin + q) and the column of their
        tolerances 1e-8 (1 + ||rhs||); None for an l1 or box block, whose
        closed form meets its system exactly."""
        GU = self.metric_apply(self.schedule.factor(ks)[:, None], U)
        V = -(GU + Q_lin)
        desc = self.desc
        if desc.kind != "quadratic":
            return V, None
        rhs = -(Q_lin + desc.q)
        miss = GU + U @ desc.Q.T - rhs
        return V, (np.sqrt(np.vecdot(miss, miss)), 1e-8 * (1.0 + np.sqrt(np.vecdot(rhs, rhs))))

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


def _solve_block(system: BlockSystem, k: int, shift, gamma_prev, prev):
    """argmin desc(u) - <gamma_prev, N u> + 0.5||N u + shift||^2_{H_k}
    + 0.5||u - prev||^2_{P_k} for the block ``system`` at iteration k, and
    its linear term q_lin = -N^T gamma_prev + N^T H_k shift - P_k prev, from
    which the block's pass forms the solve's residual and system test
    (:meth:`BlockSystem.residuals`).  H_k u is formed as f_k (H_0 u), every
    P_k u as (s f_k) (P_0 u) + a u (s f_k is f_k for a scaled family) and a
    zero P_k u not at all: the products and roundings of the realized views,
    from the system's run constants and f_k alone.  H_0, N and P_0 multiply
    elementwise when they are diagonal (:func:`_mul`)."""
    f = system.schedule.factor(k)
    NT = system._NT
    q_lin = -_mul(NT, gamma_prev) + _mul(NT, f * _mul(system.H0, shift))
    if system.P is not None:
        P0, a, s = system.P
        Pu = (s * f) * _mul(P0, prev)
        q_lin = q_lin - (Pu + a * prev if a else Pu)
    return system.solve(f, q_lin), q_lin


def _oracle(desc, v, u):
    """The subproblem optimality oracle: the distance of the solve's residual
    v from d desc(u), and whether it exceeds ``_MEMBERSHIP_TOL`` (1 + ||v||);
    row by row for stacks."""
    dist = desc.membership_distance(v, u)
    return dist, dist > _MEMBERSHIP_TOL * (1.0 + np.sqrt(np.vecdot(v, v)))


def _solve_checks(system: BlockSystem, block: str, ks: np.ndarray, U: np.ndarray, Q_lin: np.ndarray) -> list:
    """The checks of the stacked solves U of the ``block`` ("x" or "y") at
    the iterations ks, in a step's order: the system test of a quadratic
    block, then the optimality oracle.  Each is (the column of failures, the
    error of row i)."""
    V, test = system.residuals(ks, U, Q_lin)
    checks = []
    if test is not None:
        r, tol = test
        checks.append((r > tol, lambda i: SubproblemError(
            f"{block}-subproblem quadratic part is singular at k = {ks[i]}: residual {r[i]:.3g} > {tol[i]:.3g}"
        )))
    dist, failed = _oracle(system.desc, V, U)
    checks.append((failed, lambda i: SubproblemError(
        f"{block}-subproblem optimality violated at k = {ks[i]}: distance {dist[i]}"
    )))
    return checks


def solve_x_subproblem(problem, x_prev, By_prev, gamma_prev, system: BlockSystem, k: int):
    """Exact x-update at iteration k under (f, A, R_k), given the product
    ``By_prev`` = B y_{k-1}; ``system`` is the x-block's :class:`BlockSystem`.
    Returns x_k and its linear term q_lin (see :func:`_solve_block`), from
    which the block's pass checks the solve when the step is certified."""
    return _solve_block(system, k, By_prev - problem.b, gamma_prev, x_prev)


def solve_y_subproblem(problem, Ax_k, y_prev, gamma_prev, system: BlockSystem, k: int):
    """Exact y-update given ``Ax_k`` = A x_k; mirror of the x-update with
    (g, B, S_k)."""
    return _solve_block(system, k, Ax_k - problem.b, gamma_prev, y_prev)


def update_multiplier(gamma_prev, H0, f, theta, primal, primal_t):
    """Over-relaxed multiplier update and the extragradient multiplier under
    H_k = f_k H_0, given H_0 as a matrix or in its :func:`_compact` form
    ``H0`` (a number for h I) and f = f_k, from the residuals
    ``primal`` = A x_k + B y_k - b and ``primal_t`` = A x_k + B y_{k-1} - b:

        gamma_k = gamma_{k-1} - theta H_k (A x_k + B y_k - b)
        gamma~_k = gamma_{k-1} - H_k (A x_k + B y_{k-1} - b)
    """
    return gamma_prev - theta * (f * _mul(H0, primal)), gamma_prev - f * _mul(H0, primal_t)


@dataclass(slots=True, eq=False)
class AdmmStep:
    """What step k hands to its block: z_k = (x_k, y_k, gamma_k), gamma~_k,
    each solve's linear term q_lin and the primal residual A x_k + B y_k - b,
    from which the block's pass checks each solve's system and optimality
    oracle and the gamma residual identity."""

    k: int
    x: np.ndarray
    y: np.ndarray
    gamma: np.ndarray
    gamma_tilde: np.ndarray
    q_x: np.ndarray
    q_y: np.ndarray
    primal: np.ndarray


# the fields of a step that fill the blocks of z, of z~ (its x and y are z's) and of
# (q_x, q_y, primal), the stacked rows of a block
_STACKED = ("x", "y", "gamma", "gamma_tilde", "q_x", "q_y", "primal")


def _dual_max(dual_x, dual_y, dual_gamma):
    """The largest of the three dual seminorms, row by row."""
    return np.maximum(np.maximum(dual_x, dual_y), dual_gamma)


@dataclass(eq=False)
class KktResidualCertificate:
    """A pointwise or ergodic KKT residual certificate at each iteration k of
    a block, every value a column or a stack of rows.  ``eps`` is the ergodic
    eps^a_k of the HPE accumulators, which ``eps_x + eps_y`` decomposes;
    ``memberships`` are the ergodic eps-memberships, none for a pointwise one."""

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

    dual_max = property(lambda self: _dual_max(self.dual_x, self.dual_y, self.dual_gamma))


def compute_d0_admm(z_star: np.ndarray, M0: BlockDiagOperator, z0: np.ndarray) -> float:
    """||z0 - z_star||_{M_0}: the distance in the metric M_0 (see
    :func:`assemble_Mk`) from the start point z0 to one solution z_star, both
    product-space vectors (x, y, gamma).

    Upper-bounds the infimum over the whole solution set; every rate bound
    is increasing in this quantity, so the bounds stay valid.
    """
    return M0.seminorm(z0 - z_star)


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
            f"eps_subdiff_{block}", k, gap, eps, 1.0 + np.abs(eps) + np.abs(np.vecdot(s, u))
        ),
        f"eps_domain_{block}": _membership(
            f"eps_domain_{block}", k, off, 0.0, 1.0 + np.sqrt(np.vecdot(s, s)) + np.sqrt(np.vecdot(u, u))
        ),
    }


@dataclass(eq=False)
class CertifiedBlock:
    """Consecutive iterations with every check of them and the stopping
    state after the last: ``iterate`` the :class:`HpeIterate` of their rows
    and metrics M_k that the run's HPE state absorbed, ``dual_x``, ``dual_y``,
    ``dual_gamma`` the dual seminorms of r's blocks and every check a column,
    ``hpe_check`` the relative-error condition, ``memberships`` the
    inclusions of iterate k's own subgradients s_x in df(x_k), s_y in dg(y_k)
    at each k, and ``fejer`` the Fejer bound against the reference solution.
    ``first_k_pointwise`` / ``first_k_ergodic`` are the first k at which the
    pointwise / ergodic stopping rule held, or None while it has not.
    Iteration i is ``row_of(blk, slice(i, i + 1))``, a block of one row.
    """

    iterate: HpeIterate
    dual_x: np.ndarray
    dual_y: np.ndarray
    dual_gamma: np.ndarray
    hpe_check: BoundCheck
    memberships: dict  # membership_x/_y of each iterate
    pointwise: KktResidualCertificate
    ergodic: KktResidualCertificate
    fejer: BoundCheck
    first_k_pointwise: int | None
    first_k_ergodic: int | None

    def __len__(self) -> int:
        return len(self.iterate.k)

    dual_max = KktResidualCertificate.dual_max

    @property
    def checks(self) -> dict[str, list[BoundCheck]]:
        """Every check of the block once, grouped and ordered as the report's
        ``checks``: ``hpe``, ``bounds``, ``memberships`` (each iterate's own
        and the ergodic eps-memberships) and ``fejer``."""
        pw, erg = self.pointwise, self.ergodic
        return {
            "hpe": [self.hpe_check],
            "bounds": [*pw.checks.values(), *erg.checks.values()],
            "memberships": [*self.memberships.values(), *erg.memberships.values()],
            "fejer": [self.fejer],
        }

    @property
    def ok(self) -> bool:
        """The one verdict: every check in every group holds at every
        iteration of the block."""
        return all(np.all(c.ok) for group in self.checks.values() for c in group)


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
        z0 = np.concatenate([self.x, self.y, self.gamma])  # z_0, shared by the HPE state and d0

        # every refusal that needs no reference comes first: validation at every k,
        # M_0, then each block's system (SubproblemError)
        schedule.validate()
        try:  # H_0 and S_0 are their (scaled) families' anchors and R_0 the R triple, as f_0 = 1
            (H0, _, _), (R, a, s), (S0, _, _) = map(schedule.family, "HRS")
            self.M0 = assemble_Mk(H0, R.affine(a, s), S0, problem.B, theta_params.theta)
        except ValueError as exc:
            msg = f"schedule H_0 gives no metric M_0, which holds H_0^-1 / theta: {exc}"
            raise ScheduleError(msg) from exc
        self._systems = BlockSystem(problem.f, problem.A, schedule, "R"), BlockSystem(problem.g, problem.B, schedule, "S")
        self.reference = ref = reference if reference is not None else reference_solve(problem)
        self.z_star = np.concatenate([ref.x, ref.y, ref.gamma])  # the Fejer check's solution
        self.d0 = compute_d0_admm(self.z_star, self.M0, z0)
        self.eta0 = theta_params.tau * self.d0**2
        # the one run state: z~ and r sums, Fejer sum, sigma, eta_0 and bounds
        self.hpe = HpeState(z0, RateBounds(self.d0, theta_params.sigma, schedule.C_S, schedule.C_P, eta0=self.eta0))
        self.k = 0
        # running pointwise best, the first iterate achieving the min max-residual:
        # its z~ and r and its table row (k and the three dual seminorms), one row
        # of each per iteration of the latest block; before it, k = 0 at +inf duals
        self._best = (*np.zeros((2, 1, self.M0.dim)), np.array([[0.0, np.inf, np.inf, np.inf]]))
        # block-wise eps sums, kept apart from the HPE accumulators so the eps
        # decomposition can be cross-checked against the full-space value:
        # sum_i <r_{i,x} + A^T gamma~_i, x_i> and the same for y
        self._dot_s = [0.0, 0.0]

    @property
    def bounds(self) -> RateBounds:
        return self.hpe.bounds

    # -- one iteration -----------------------------------------------------

    def step(self) -> AdmmStep:
        """One iteration, forming only what the next one depends on: the two
        subproblem solves and the multiplier update.  Each solve's system
        test and optimality oracle and the gamma residual identity are checked
        in the pass of the block the step is certified in
        (:meth:`certified_blocks`), with every check against the paper's
        guarantees.  A step refuses nothing of its own: a block that no solve
        could be formed for is refused once, when the run builds its system
        (:class:`BlockSystem`)."""
        k = self.k + 1
        if k > self.schedule.k_max:
            raise ValueError(f"schedule horizon k_max={self.schedule.k_max} exhausted")
        problem, schedule = self.problem, self.schedule
        b, (x_system, y_system) = problem.b, self._systems
        x_prev, y_prev, gamma_prev, By_prev = self.x, self.y, self.gamma, self._By

        # each product with A, B and H_k is formed once, elementwise for a diagonal one
        x_k, q_x = solve_x_subproblem(problem, x_prev, By_prev, gamma_prev, x_system, k)
        Ax = x_system.apply_N(x_k)
        y_k, q_y = solve_y_subproblem(problem, Ax, y_prev, gamma_prev, y_system, k)
        By = y_system.apply_N(y_k)
        primal = Ax + By - b
        gamma_k, gamma_t = update_multiplier(gamma_prev, x_system.H0, schedule.factor(k), self.params.theta,
                                             primal, Ax + By_prev - b)
        self.k = k
        self.x, self.y, self.gamma, self._By = x_k, y_k, gamma_k, By
        return AdmmStep(k, x_k, y_k, gamma_k, gamma_t, q_x, q_y, primal)

    def certified_blocks(self, max_iters: int, rho: float, eps: float):
        """Step up to ``max_iters`` times, but not past the schedule horizon
        k_max, and certify the steps a block at a time, ``_block_rows(dim)``
        of them at product-space dimension dim (32 from dim = 64 up,
        2048 // dim below: 102 at dim = 20): the checks that each step is
        exact (its solves' system tests and optimality oracles and its gamma
        residual identity) and every check of the paper's guarantees are made
        in one pass over the block's stacked rows.  Yields a
        :class:`CertifiedBlock` per block.

        Stops after the first k by which both stopping rules have held: the
        pointwise rule res_max <= rho, and the ergodic rule erg_res_max <= rho
        with eps_sum <= eps.  The block of that k ends at it: the run's state
        is the one after k, as if the steps past it had not been taken.  A
        step that raises, or whose oracle or identity fails, does so after
        the steps before it are certified, and not at all when the rules held
        among those; the run's state is then the one after the last certified
        step, and the steps taken past the failing one are discarded.  Steps
        taken by :meth:`step` outside this loop are not certified: it then
        raises ``ValueError`` and leaves the run as it is.
        """
        if self.k != self.hpe.k:
            raise ValueError(f"steps k = {self.hpe.k + 1}..{self.k} were taken by step() and are not certified")
        first, rows = (None, None), _block_rows(self.M0.dim)
        left = min(max_iters, self.schedule.k_max - self.k)
        while left > 0:
            n, error = 0, None
            # z_k, z~_k, z_{k-1} - z_k, r_k and (q_x, q_y, A x_k + B y_k - b) of each
            # step as a row; a step's vectors are copied in here as it is taken
            # and not kept elsewhere
            stacks = np.empty((5, min(rows, left), self.M0.dim))
            columns = [*self.M0.split(stacks[0]), self.M0.split(stacks[1])[2], *self.M0.split(stacks[4])]
            before = (self.k, self.x, self.y, self.gamma, self._By)
            try:
                for i in range(len(stacks[0])):
                    row = self.step()
                    for col, name in zip(columns, _STACKED):
                        col[i] = getattr(row, name)
                    n, row = i + 1, None
            except Exception as exc:  # raised below, once the steps before it are certified
                error = exc
            # the stepped rows' M_k, formed once: every family moves by f_k, so M_k is
            # blkdiag(R_k, f_k mid_0, gam_0 / f_k) from M_0's blocks and the R triple
            ks = np.arange(before[0] + 1, self.k + 1)
            f, (R, a, s), (_, mid0, gam0) = self.schedule.factor(ks), self.schedule.family("R"), self.M0.blocks
            M = block_diag([R.affine(a, s * f), mid0.affine(0.0, f), gam0.affine(0.0, 1.0 / f)])
            n, error = self._exact_steps(ks, stacks[:, :n], M, np.concatenate(before[1:4]), error)
            left -= n
            if not n:  # no step of the block is certified: the run stands where it did before it
                self.k, self.x, self.y, self.gamma, self._By = before
                raise error
            if n < len(ks):  # a step failed inside the block: the metrics of the rows before it
                ks, M = ks[:n], row_of(M, slice(0, n))
            blk = self._certify(ks, stacks[:, :n], M, rho, eps, *first)
            first = (blk.first_k_pointwise, blk.first_k_ergodic)
            yield blk
            if None not in first:
                return
            if error is not None:
                raise error
            del stacks, columns, M, blk  # the next block's arrays do not sit beside this one's

    def _exact_steps(self, ks, stacks: np.ndarray, M: BlockDiagOperator, z_prev: np.ndarray, error):
        """Form z_{k-1} - z_k and r_gamma of the ``stacks`` of rows stepped at
        ks under their metrics M (``z_prev`` is z before the first) and check
        that each step is exact, in the order of a step: the x-solve's system
        test and optimality oracle, the y-solve's (:func:`_solve_checks`, one
        product per block for all rows), then the gamma residual identity
        r_gamma = (theta H_k)^-1 (gamma_{k-1} - gamma_k) = A x_k + B y_k - b
        within 1e-12 (1 + ||A x_k + B y_k - b||) + 1e-13.  Returns the number
        of rows before the first failing one and its error, or of all rows
        and ``error``, the error of the step after them."""
        Z, _, P, R, L = stacks
        n = len(ks)
        if not n:
            return 0, error
        P[0] = z_prev - Z[0]
        np.subtract(Z[:-1], Z[1:], out=P[1:])
        (x, y, _), (q_x, q_y, primal) = M.split(Z), M.split(L)
        dg, r_g = M.split(P)[2], M.split(R)[2]
        r_g[...] = M.blocks[2].apply(dg)  # gam_0 / f_k
        miss = r_g - primal
        gap, tol = np.sqrt(np.vecdot(miss, miss)), 1e-12 * (1.0 + np.sqrt(np.vecdot(primal, primal))) + 1e-13
        checks = [
            *_solve_checks(self._systems[0], "x", ks, x, q_x),
            *_solve_checks(self._systems[1], "y", ks, y, q_y),
            (gap > tol, lambda i: FloatingPointError(
                f"gamma residual identity violated beyond roundoff at k = {ks[i]}: {gap[i]:.3g} > {tol[i]:.3g}"
            )),
        ]
        failed = np.column_stack([c[0] for c in checks])
        if not failed.any():
            return n, error
        i, check = divmod(int(failed.argmax()), len(checks))  # the first row's first failing check
        return i, checks[check][1](i)

    def _certify(self, ks, stacks: np.ndarray, M, rho: float, eps: float, first_pw, first_erg) -> CertifiedBlock:
        """Every check of the iterations ks after the last certified one,
        just stepped and found exact, in one pass over their ``stacks`` of
        rows (z, z~, z_{k-1} - z_k, r and the steps' own residuals) under
        their metrics M, and the stopping rules on top of the first k at
        which each held so far; commits the run's state through the last
        iteration, or through the first k by which both rules held."""
        problem, p = self.problem, self.params
        k0, n = int(ks[0]), len(ks)
        Z, Zt, P, R, _ = stacks
        Zt[:, : M.offsets[2]] = Z[:, : M.offsets[2]]  # z~_k = (x_k, y_k, gamma~_k)
        dz, rz = M.split(P), M.split(R)
        for Q, d, r in zip(M.blocks[:2], dz, rz):  # r_x and r_y; r_gamma is formed with the steps' checks
            r[...] = Q.apply(d)
        duals = [Q._seminorm_from(d, r) for Q, d, r in zip(M.blocks, dz, rz)]
        S, a, s = self.schedule.family("S")
        S_rows = S.affine(a, s * self.schedule.factor(ks))  # eta's S_k
        eta = (
            (p.sigma - (p.theta - 1.0) ** 2) / p.theta**2 * duals[2] ** 2
            + _SQRT2 * (p.sigma + p.theta - 1.0) / p.theta * S_rows.seminorm(dz[1]) ** 2
        )
        it = HpeIterate(ks, Z, Zt, R, P, eta, M)
        hpe_check = self.hpe.add_iterate(it)

        (x, y, gamma_t), (r_x, r_y, _) = M.split(Zt), rz
        s_x = r_x + gamma_t @ problem.A  # the subgradients the memberships test
        s_y = r_y + gamma_t @ problem.B
        memberships = {
            name: _membership(name, ks, desc.membership_distance(s, u), 0.0, 1.0 + np.sqrt(np.vecdot(r, r)))
            for name, desc, s, u, r in (
                ("membership_x", problem.f, s_x, x, r_x), ("membership_y", problem.g, s_y, y, r_y)
            )
        }
        self._dot_s = [running_sums(tot, np.vecdot(s, u)) for tot, s, u in zip(self._dot_s, (s_x, s_y), (x, y))]
        del s_x, s_y

        # the running pointwise best: at each k, the first iterate of least dual_max
        cands = (Zt, R, np.column_stack([ks, *duals]))
        dual_max = _dual_max(*duals)
        before = self._best[2][0, 1:4].max()
        better = dual_max < np.minimum.accumulate(np.concatenate(([before], dual_max)))[:-1]
        best = np.maximum.accumulate(np.where(better, np.arange(1, n + 1), 0))  # 0: the best before
        self._best = tuple(np.concatenate((b, c))[best] for b, c in zip(self._best, cands))

        pw, erg = self.pointwise_kkt_certificate(), self.ergodic_kkt_certificate()
        fejer = self.hpe.fejer_check(self.z_star)
        held_pw = pw.dual_max <= rho
        held_erg = (erg.dual_max <= rho) & (erg.eps_x + erg.eps_y <= eps)
        if first_pw is None and held_pw.any():
            first_pw = int(ks[held_pw.argmax()])
        if first_erg is None and held_erg.any():
            first_erg = int(ks[held_erg.argmax()])
        end = n if None in (first_pw, first_erg) else max(first_pw, first_erg) - k0 + 1
        blk = CertifiedBlock(it, *duals, hpe_check, memberships, pw, erg, fejer, first_pw, first_erg)

        # commit the state after iteration end - 1 of the block, each kept row a copy
        i = end - 1
        self.hpe.keep(end)
        self._dot_s = [d[i] for d in self._dot_s]
        self._best = tuple(b[i : i + 1].copy() for b in self._best)
        if ks[i] != self.k:  # steps past it were taken: its state, and its B y_k again as its step formed it
            self.k = int(ks[i])
            self.x, self.y, self.gamma = (v[i].copy() for v in M.split(Z))
            self._By = self._systems[1].apply_N(self.y)
        return blk if end == n else row_of(blk, slice(0, end))

    # -- certificates at the current iteration k ---------------------------
    # They come from running accumulators; no per-iteration history is kept.
    # Each is a column over the iterations of the latest block: while a block
    # is certified, its rows; after it, the one row the run stands at.

    def pointwise_kkt_certificate(self) -> KktResidualCertificate:
        """Best single iterate up to k against the O(1/sqrt(k)) bound."""
        self.hpe.require_iterate()
        k, (z_tilde, r, table) = self.hpe.last.k, self._best
        k_best, dual_x, dual_y, dual_g = table.T
        bound = self.bounds.pointwise_rhs(k)
        cert = KktResidualCertificate(
            "pointwise", k, k_best.astype(int), *self.M0.split(z_tilde), *self.M0.split(r),
            dual_x=dual_x, dual_y=dual_y, dual_gamma=dual_g, bound_residual=bound,
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
        k, M_k = self.hpe.last.k, self.hpe.last.M
        A, B = self.problem.A, self.problem.B
        x_a, y_a, gt_a = M_k.split(zt_a)
        rx_a, ry_a, rg_a = M_k.split(r_a)
        # block-wise eps from the dot sums kept apart from the HPE accumulators:
        # eps = (1/k) sum <s_i, x_i> - <mean s, mean x>, s_i = r_{i,x} + A^T gamma~_i
        s_a = (rx_a + gt_a @ A, ry_a + gt_a @ B)
        eps_x = self._dot_s[0] / k - np.vecdot(s_a[0], x_a)
        eps_y = self._dot_s[1] / k - np.vecdot(s_a[1], y_a)
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
                np.sqrt(np.vecdot(miss, miss)), 1e-10 * (1.0 + np.sqrt(np.vecdot(rg_a, rg_a))), tol_rel=0.0,
            ),
        })
        return cert

"""Structured problem instances for `min f(x) + g(y)  s.t.  Ax + By = b`.

Function descriptors carry closed-form subdifferential machinery (the
distance to the subdifferential and the Fenchel--Young gap of the conjugate)
so that solver-side certificates can be verified independently of how the
iterates were produced.
The reference solver shares no code with the main solver.  When both blocks
are quadratic it solves the KKT system directly, by LU (least squares on the
same matrix when that system is singular).  Otherwise it runs a standalone
textbook ADMM, after a least-squares check that Ax + By = b has a solution
(skipped when B has m orthogonal nonzero columns, which reach every b), and,
for an l1 or box g, polishes its tail: once y's active set has held for a
few iterates, the KKT system of that set, with the pinned coordinates moved
into its right-hand side, is solved by LU and its point kept if its KKT
residual meets the accuracy (the solution polishing of OSQP, Stellato et
al., Math. Prog. Comp. 2020).  A point that misses it corrects the set by a
primal-dual active-set step (Hintermueller, Ito and Kunisch, SIAM J. Optim.
2002), which is solved in turn.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .linalg import _RANGE_TOL, PsdOperator, _is_diagonal, _range_split, finite_array

__all__ = [
    "FunctionDescriptor",
    "ProblemSpec",
    "ReferenceSolution",
    "generate",
    "kkt_residual",
    "reference_solve",
    "plain_admm",
    "plain_admm_iterates",
    "load_problem",
    "problem_from_dict",
]

_KINDS = ("quadratic", "l1", "box")
_FEASIBILITY_TOL = 1e-8  # relative residual of the least-squares solve of [A B] w = b


@dataclass(frozen=True, eq=False)
class FunctionDescriptor:
    """A proper closed convex function of one of three structured kinds.

    quadratic: f(x) = 0.5 x^T Q x + q^T x  (Q PSD)
    l1:        f(x) = lam * ||x||_1
    box:       indicator of [l, u]

    ``"zero"`` is read as the quadratic with Q = 0 and q = 0.
    """

    kind: str
    dim: int
    Q: np.ndarray | None = None
    q: np.ndarray | None = None
    lam: float | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    # Q as a PsdOperator, decomposed once: its extremes give the PSD verdict at
    # construction and its eigenbasis the Fenchel--Young gap
    _Q_operator: PsdOperator | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == "zero":
            object.__setattr__(self, "kind", "quadratic")
            object.__setattr__(self, "Q", np.zeros((self.dim, self.dim)))
            object.__setattr__(self, "q", np.zeros(self.dim))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.kind == "quadratic":
            Q = finite_array(self.Q, "Q")
            q = finite_array(self.q, "q")
            if Q.shape != (self.dim, self.dim) or q.shape != (self.dim,):
                raise ValueError("quadratic descriptor has inconsistent shapes")
            symmetric = (Q == Q.T).all()
            if not symmetric and np.abs(Q - Q.T).max(initial=0.0) > 1e-10 * max(1.0, np.abs(Q).max()):
                raise ValueError("quadratic Q must be symmetric")
            try:  # 0.5 (Q + Q^T) is Q itself when Q is exactly symmetric
                Q_op = PsdOperator(Q if symmetric else 0.5 * (Q + Q.T))
            except ValueError:  # rejected under the operator's PSD bound, which is looser than this one
                Q_op = None
            if Q_op is None or Q_op._eig_extremes[0] < -1e-10 * max(1.0, np.abs(Q).max()):
                raise ValueError("quadratic Q must be PSD")
            object.__setattr__(self, "Q", Q_op.matrix)  # one Q for every reader: the symmetrized one
            object.__setattr__(self, "_Q_operator", Q_op)
            object.__setattr__(self, "q", q)
        elif self.kind == "l1":
            if self.lam is None or not 0 < self.lam < np.inf:
                raise ValueError("l1 descriptor requires a finite lambda > 0")
        elif self.kind == "box":
            lo = finite_array(self.lower, "l")
            hi = finite_array(self.upper, "u")
            if lo.shape != (self.dim,) or hi.shape != (self.dim,):
                raise ValueError("box bounds have inconsistent shapes")
            if (lo > hi).any():
                raise ValueError("box requires l <= u componentwise")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)

    # -- function values and subdifferential machinery -------------------

    def values(self, X: np.ndarray) -> np.ndarray:
        """Vectorized values over rows of X (used with :meth:`sample_domain`)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "quadratic":
            return 0.5 * np.einsum("ij,ij->i", X @ self.Q, X) + X @ self.q
        if self.kind == "l1":
            return self.lam * np.abs(X).sum(axis=1)
        out = np.zeros(X.shape[0])
        bad = (X < self.lower - 1e-12).any(axis=1) | (X > self.upper + 1e-12).any(axis=1)
        out[bad] = np.inf
        return out

    def membership_distance(self, v: np.ndarray, x: np.ndarray) -> float:
        """Euclidean distance from v to the subdifferential at x, row by row
        for stacks of points.

        +inf when x is outside the effective domain (box only).
        """
        v = np.asarray(v, dtype=float)
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            d = v - (x @ self.Q.T + self.q)
            return np.sqrt(np.vecdot(d, d))
        if self.kind == "l1":
            tol = 1e-12 * (1.0 + np.abs(x).max(axis=-1, initial=0.0))[..., None]
            d = np.where(
                x > tol,
                np.abs(v - self.lam),
                np.where(x < -tol, np.abs(v + self.lam), np.maximum(np.abs(v) - self.lam, 0.0)),
            )
            return np.sqrt(np.vecdot(d, d))
        # box: normal cone of [l, u]
        below, above, low, high = self._box_bands
        at_lo, at_hi = x <= low, x >= high
        d = np.where(
            at_lo & at_hi,
            0.0,  # pinned coordinate: normal cone is the whole line
            np.where(at_lo, np.maximum(v, 0.0), np.where(at_hi, np.maximum(-v, 0.0), np.abs(v))),
        )
        outside = ((x < below) | (x > above)).any(axis=-1)
        return np.where(outside, np.inf, np.sqrt(np.vecdot(d, d)))[()]

    @cached_property
    def _box_bands(self):
        """(l - tol, u + tol, l + tol, u - tol) with tol = 1e-10 (1 + max(u - l)):
        a point is outside the box below the first two and at a bound within
        the last two."""
        tol = 1e-10 * (1.0 + np.abs(self.upper - self.lower).max(initial=0.0))
        return self.lower - tol, self.upper + tol, self.lower + tol, self.upper - tol

    def fenchel_young(self, s: np.ndarray, x: np.ndarray) -> tuple[float, float]:
        """(gap, off): the Fenchel--Young gap f(x) + f*(s) - <s, x> from the
        closed form of f*, and the distance of s (of x, for a box) from the
        domain where that form holds, row by row for stacks of points.  s
        lies in the eps-subdifferential of f at x exactly when off = 0 and
        gap <= eps."""
        s = np.asarray(s, dtype=float)
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":  # 0.5 ||Qx + q - s||*^2_Q when s - q is in range(Q)
            dual, off = self._Q_operator.range_parts(x @ self.Q.T + self.q - s)
            return 0.5 * dual**2, off
        if self.kind == "l1":  # f*(s) = 0 when ||s||_inf <= lam
            gap = self.lam * np.abs(x).sum(axis=-1) - np.vecdot(s, x)
            return gap, np.maximum(np.abs(s).max(axis=-1, initial=0.0) - self.lam, 0.0)
        # box: f(x) = 0 when x is in [l, u], f*(s) = sum_i max(l_i s_i, u_i s_i)
        gap = np.maximum(self.lower * s, self.upper * s).sum(axis=-1) - np.vecdot(s, x)
        out = x - np.clip(x, self.lower, self.upper)
        return gap, np.sqrt(np.vecdot(out, out))

    def sample_domain(self, count: int, around: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample points in dom f near ``around`` (rows of the result); a
        reference the exact :meth:`fenchel_young` check is tested against."""
        around = np.asarray(around, dtype=float)
        scale = 1.0 + np.abs(around).max(initial=0.0)
        X = around + scale * rng.normal(size=(count, self.dim))
        if self.kind == "box":
            X = np.clip(X, self.lower, self.upper)
        return X


def descriptor_from_dict(desc: dict, dim: int, name: str) -> FunctionDescriptor:
    """The descriptor of the JSON object ``desc`` for the block ``name``."""
    if not isinstance(desc, dict):
        raise ValueError(f"{name} must be an object")
    kind = desc.get("type")
    if kind == "zero":
        return FunctionDescriptor("zero", dim)
    if kind == "quadratic":
        return FunctionDescriptor(
            "quadratic", dim,
            Q=finite_array(desc["Q"], f"{name} Q", 2), q=finite_array(desc["q"], f"{name} q", 1),
        )
    if kind == "l1":
        return FunctionDescriptor("l1", dim, lam=float(finite_array(desc["lambda"], f"{name} lambda", 0)))
    if kind == "box":
        return FunctionDescriptor(
            "box", dim,
            lower=finite_array(desc["l"], f"{name} l", 1), upper=finite_array(desc["u"], f"{name} u", 1),
        )
    raise ValueError(f"unknown function descriptor type {kind!r}")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One instance of the linearly constrained two-block problem."""

    f: FunctionDescriptor
    g: FunctionDescriptor
    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    name: str = ""

    def __post_init__(self):
        A = finite_array(self.A, "A")
        B = finite_array(self.B, "B")
        b = finite_array(self.b, "b")
        m = b.shape[0]
        if A.shape != (m, self.f.dim) or B.shape != (m, self.g.dim):
            raise ValueError("A/B/b dimensions are inconsistent with f and g")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.f.dim, self.g.dim, self.b.shape[0]


def problem_from_dict(data: dict) -> ProblemSpec:
    """The problem of a JSON object; ``ValueError`` names a wrong-typed field."""
    if not isinstance(data, dict):
        raise ValueError("a problem must be a JSON object")
    A, B = finite_array(data["A"], "A", 2), finite_array(data["B"], "B", 2)
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ValueError("name must be a string")
    return ProblemSpec(
        f=descriptor_from_dict(data["f"], A.shape[1], "f"),
        g=descriptor_from_dict(data["g"], B.shape[1], "g"),
        A=A,
        B=B,
        b=finite_array(data["b"], "b", 1),
        name=name,
    )


def load_problem(path) -> ProblemSpec:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    x: np.ndarray
    y: np.ndarray
    gamma: np.ndarray
    kkt_residual: float


# -- generators --------------------------------------------------------------

_GENERATOR_DIMS = {"lasso": "n x m", "box_qp": "n", "consensus_ls": "n_x x n_y x m"}


def generate(kind: str, dims, seed: int) -> ProblemSpec:
    """Seeded instance generators; b is always built from a feasible point.
    ``dims`` has the kind's form in ``_GENERATOR_DIMS``; a bare n is ``(n,)``."""
    if kind not in _GENERATOR_DIMS:
        raise ValueError(f"unknown generator kind {kind!r}")
    dims = tuple(dims) if isinstance(dims, (tuple, list)) else (dims,)
    form = _GENERATOR_DIMS[kind]
    if len(dims) != form.count(" x ") + 1:
        raise ValueError(f"{kind} dims must be {form}, got {'x'.join(map(str, dims))}")
    rng = np.random.default_rng(seed)
    if kind == "lasso":
        n, m = dims
        _check_dims(n, m)
        A = rng.normal(size=(m, n)) / np.sqrt(m)
        c = rng.normal(size=n)
        f = FunctionDescriptor("quadratic", n, Q=np.eye(n), q=-c)
        g = FunctionDescriptor("l1", m, lam=0.1)
        return ProblemSpec(f, g, A, -np.eye(m), np.zeros(m), name=f"lasso-{n}x{m}-s{seed}")
    if kind == "box_qp":
        (n,) = dims
        m = max(1, n // 2)
        _check_dims(n, m)
        L = rng.normal(size=(n, n)) / np.sqrt(n)
        Q = L @ L.T + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        lo = -np.ones(m)
        hi = np.ones(m)
        f = FunctionDescriptor("quadratic", n, Q=Q, q=q)
        g = FunctionDescriptor("box", m, lower=lo, upper=hi)
        A = rng.normal(size=(m, n)) / np.sqrt(n)
        y_hat = np.clip(rng.normal(size=m), lo, hi)
        b = A @ rng.normal(size=n) + y_hat
        return ProblemSpec(f, g, A, np.eye(m), b, name=f"box_qp-{n}-s{seed}")
    n_x, n_y, m = dims  # consensus_ls
    _check_dims(n_x, m)
    _check_dims(n_y, m)
    L1 = rng.normal(size=(n_x, n_x)) / np.sqrt(n_x)
    L2 = rng.normal(size=(n_y, n_y)) / np.sqrt(n_y)
    f = FunctionDescriptor("quadratic", n_x, Q=L1 @ L1.T + np.eye(n_x), q=rng.normal(size=n_x))
    g = FunctionDescriptor("quadratic", n_y, Q=L2 @ L2.T + np.eye(n_y), q=rng.normal(size=n_y))
    A = rng.normal(size=(m, n_x)) / np.sqrt(n_x)
    B = rng.normal(size=(m, n_y)) / np.sqrt(n_y)
    b = A @ rng.normal(size=n_x) + B @ rng.normal(size=n_y)
    return ProblemSpec(f, g, A, B, b, name=f"consensus_ls-{n_x}x{n_y}x{m}-s{seed}")


def _check_dims(n: int, m: int):
    if not (1 <= n <= 200 and 1 <= m <= 200):
        raise ValueError(f"dims out of supported range: n={n}, m={m}")


# -- KKT residuals and reference solver --------------------------------------

def kkt_residual(problem: ProblemSpec, x, y, gamma) -> tuple[float, float, float]:
    """(res_x, res_y, res_gamma) of the first-order optimality system.

    res_x is the distance from A^T gamma to the subdifferential of f at x,
    res_y mirrors it for g, and res_gamma is the primal residual norm.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    gamma = np.asarray(gamma, float)
    res_x = problem.f.membership_distance(problem.A.T @ gamma, x)
    res_y = problem.g.membership_distance(problem.B.T @ gamma, y)
    primal = problem.A @ x + problem.B @ y - problem.b
    res_g = float(np.sqrt(primal @ primal))
    return res_x, res_y, res_g


def _prox_step(desc: FunctionDescriptor, G_diag: np.ndarray, q_lin: np.ndarray) -> np.ndarray:
    """argmin f(y) + 0.5 y^T diag(G) y + q^T y for a separable quadratic part."""
    if (G_diag <= 0).any():
        raise ValueError("separable prox step requires a positive diagonal")
    if desc.kind == "l1":
        t = -q_lin
        return np.sign(t) * np.maximum(np.abs(t) - desc.lam, 0.0) / G_diag
    return np.clip(-q_lin / G_diag, desc.lower, desc.upper)  # a box: its caller passes l1 or box


def _factored_solver(M: np.ndarray, name: str, block: tuple | None = None):
    """x -> M^{-1} x for a nonsingular M, factored once: the inverse from
    one LU solve, then one step of iterative refinement against M per call.
    An exactly singular M raises ``ValueError`` naming the system ``name``
    and, for the system Q + beta N^T N of a block ``(fn, N, q)`` whose
    function fn has the linear term q, its cause (:func:`_null_cause`)."""
    try:
        M_inv = np.linalg.solve(M, np.eye(M.shape[0]))
    except np.linalg.LinAlgError as exc:
        cause = "" if block is None else f": {_null_cause(M, *block)}"
        raise ValueError(f"plain ADMM {name} is singular{cause}") from exc

    def solve(r: np.ndarray) -> np.ndarray:
        x = M_inv @ r
        return x + M_inv @ (r - M @ x)

    return solve


def _null_cause(M: np.ndarray, fn: str, N: str, q: np.ndarray) -> str:
    """Why the singular system M = Q + beta N^T N of fn(u) = 0.5 u^T Q u + q^T u
    has no unique solution: a direction d in its null space has Q d = 0 and
    N d = 0, so moving u along d keeps N u and changes fn by q^T d.  fn is
    unbounded below when q has a part in that null space above
    ``_RANGE_TOL`` ||q||, and its minimizer is not unique otherwise."""
    w, V = np.linalg.eigh(M)
    off = _range_split(w, V, len(w))[2]
    null = V[:, off] if off is not None else V[:, :1]  # the smallest eigenvector when none is cut off
    along = q @ null
    if np.sqrt(along @ along) > _RANGE_TOL * np.sqrt(q @ q):
        return f"{fn} is unbounded below along a direction d with Q_{fn} d = 0, {N} d = 0 and q_{fn}^T d != 0"
    return f"the minimizer of {fn} is not unique along a direction d with Q_{fn} d = 0, {N} d = 0 and q_{fn}^T d = 0"


def _active_set(g: FunctionDescriptor, y: np.ndarray) -> np.ndarray:
    """Where the l1/box y sits: sign(y) for l1 (0 at an exact zero); for a
    box -1 at (or below) the lower bound, +1 at the upper and 0 inside."""
    if g.kind == "l1":
        return np.sign(y).astype(np.int8)
    return np.where(y <= g.lower, -1, np.where(y >= g.upper, 1, 0)).astype(np.int8)


def _kkt_solve(
    problem: ProblemSpec, active: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, ReferenceSolution | None]:
    """The KKT system K w = rhs of ``problem``, formed once and solved by
    LU: (K, rhs, point), where point is the :class:`ReferenceSolution` of
    the solution, or None when LU finds K singular.

    f's rows are Q_f x - A^T gamma = -q_f and the constraint rows
    Ax + By = b.  With a quadratic g, w = (x, y, gamma) and g's rows are
    Q_g y - B^T gamma = -q_g.  For an l1 or box g the rows come from an
    ``active`` set (:func:`_active_set`): a coordinate at 0 (l1) or at a
    bound (box) is pinned there, and every other one, free, has
    (B^T gamma)_i = lam sign(y_i) (l1) or 0 (box).  The pinned coordinates
    are moved into the constraint's right-hand side, b - B y_pinned, so
    that w = (x, y_free, gamma) has n_x + n_free + m entries.  That is the
    solution polishing of OSQP (Stellato et al., Math. Prog. Comp. 2020),
    and the caller accepts the point only on its KKT residual.
    """
    f, g = problem.f, problem.g
    A, B = problem.A, problem.B
    n_x, n_y, m = problem.dims
    y = np.zeros(n_y)  # at the pinned coordinates: 0 (l1) or the bound (box)
    if g.kind == "quadratic":
        free, rhs_y = np.ones(n_y, dtype=bool), -g.q
    elif g.kind == "l1":
        free = active != 0
        rhs_y = -g.lam * active[free]
    else:
        free = active == 0
        y[~free] = np.where(active < 0, g.lower, g.upper)[~free]
        rhs_y = np.zeros(np.count_nonzero(free))
    B_free = B[:, free]
    n_free = B_free.shape[1]
    K = np.zeros((n_x + n_free + m,) * 2)
    xs, ys, gs = slice(0, n_x), slice(n_x, n_x + n_free), slice(n_x + n_free, None)
    K[xs, xs], K[xs, gs] = f.Q, -A.T
    K[gs, xs], K[gs, ys], K[ys, gs] = A, B_free, -B_free.T
    if g.kind == "quadratic":
        K[ys, ys] = g.Q
    rhs = np.concatenate([-f.q, rhs_y, problem.b - B @ y])
    try:
        w = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        return K, rhs, None
    y[free] = w[ys]
    return K, rhs, _kkt_point(problem, np.concatenate([w[xs], y, w[gs]]))


def _kkt_point(problem: ProblemSpec, w: np.ndarray) -> ReferenceSolution:
    """The point w = (x, y, gamma) with its KKT residual."""
    n_x, n_y, _ = problem.dims
    x, y, gamma = np.split(w, [n_x, n_x + n_y])
    return ReferenceSolution(x, y, gamma, max(kkt_residual(problem, x, y, gamma)))


def plain_admm_iterates(problem: ProblemSpec, beta: float = 1.0):
    """Textbook ADMM with penalty beta and unit dual stepsize, started at zero:
    an endless generator of the iterates (x_k, y_k, gamma_k), k = 1, 2, ...

    Independent of the variable-metric solver: the x-system (and a quadratic
    g's y-system) is factored once before the first iterate, and l1/box g
    take soft-threshold / clip prox steps.  A singular x- or y-system
    raises ``ValueError`` naming it.
    """
    A, B, b = problem.A, problem.B, problem.b
    f, g = problem.f, problem.g
    if f.kind != "quadratic":
        raise ValueError("plain ADMM reference supports quadratic/zero f only")
    BtB = B.T @ B
    if g.kind in ("l1", "box"):
        G_diag = beta * np.diag(BtB)
        if np.abs(BtB - np.diag(np.diag(BtB))).max(initial=0.0) > 1e-12:
            raise ValueError("plain ADMM needs B^T B diagonal for l1/box g")
    solve_x = _factored_solver(beta * (A.T @ A) + f.Q, "x-system Q_f + beta A^T A", ("f", "A", f.q))
    if g.kind == "quadratic":
        solve_y = _factored_solver(beta * BtB + g.Q, "y-system Q_g + beta B^T B", ("g", "B", g.q))
    y, gamma = np.zeros(g.dim), np.zeros(len(b))
    while True:
        x = solve_x(A.T @ gamma - beta * (A.T @ (B @ y - b)) - f.q)
        q_lin = -B.T @ gamma + beta * (B.T @ (A @ x - b))
        y = _prox_step(g, G_diag, q_lin) if g.kind in ("l1", "box") else solve_y(-q_lin - g.q)
        gamma = gamma - beta * (A @ x + B @ y - b)
        yield x, y, gamma


_POLISH_STREAK = 5  # iterates an l1/box active set must hold before it is polished


def plain_admm(
    problem: ProblemSpec,
    beta: float = 1.0,
    max_iters: int = 1_000_000,
    accuracy: float = 1e-10,
):
    """:func:`plain_admm_iterates` stopped at the first iterate whose KKT
    residual is at most ``accuracy``, or after ``max_iters`` iterates.
    Returns (x, y, gamma, best residual seen).

    For an l1 or box g the loop also polishes: once y's active set
    (:func:`_active_set`) has held for ``_POLISH_STREAK`` consecutive
    iterates and was not tried before, it solves the reduced KKT system of
    that set directly (:func:`_kkt_solve`, the solution polishing of OSQP),
    and of its corrections (:func:`_polish`), and returns the polished point
    if its KKT residual is at most ``accuracy``.  A wrong guess fails that
    test and the loop goes on."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    polish = problem.g.kind in ("l1", "box")
    best, held, previous, tried = np.inf, 0, None, set()
    for x, y, gamma in islice(plain_admm_iterates(problem, beta), max_iters):
        best = min(best, max(kkt_residual(problem, x, y, gamma)))
        if best <= accuracy:
            break
        if not polish:
            continue
        active = _active_set(problem.g, y)
        held = held + 1 if np.array_equal(active, previous) else 1
        previous, key = active, active.tobytes()
        if held >= _POLISH_STREAK and key not in tried:
            point = _polish(problem, active, tried, accuracy)
            if point is not None:
                return point.x, point.y, point.gamma, point.kkt_residual
    return x, y, gamma, best


def _polish(problem: ProblemSpec, active: np.ndarray, tried: set, accuracy: float) -> ReferenceSolution | None:
    """The point of the KKT system of the active set ``active``
    (:func:`_kkt_solve`), or of the first set that its corrections
    (:func:`_corrected_active_set`) lead to, whose KKT residual is at most
    ``accuracy``; None when a system is singular or a correction leads back
    to a set in ``tried``, to which each set solved here is added."""
    while True:
        tried.add(active.tobytes())
        point = _kkt_solve(problem, active)[2]
        if point is None or point.kkt_residual <= accuracy:
            return point
        active = _corrected_active_set(problem, active, point)
        if active.tobytes() in tried:
            return None


def _corrected_active_set(problem: ProblemSpec, active: np.ndarray, point: ReferenceSolution) -> np.ndarray:
    """The active set of an l1 or box g that the polished ``point`` of the
    guess ``active`` shows, a primal-dual active-set step (Hintermueller,
    Ito and Kunisch, SIAM J. Optim. 2002): a pinned coordinate whose
    multiplier s = (B^T gamma)_i leaves the normal cone, |s| > lam (l1) or
    s of the wrong sign at a bound of a box with l_i < u_i, is freed (with
    the sign of s, l1); a free coordinate whose y_i has the wrong sign (l1)
    or has left [l_i, u_i] (box) is pinned, at 0 or at the bound it
    crossed."""
    g, s, y = problem.g, problem.B.T @ point.gamma, point.y
    corrected = active.copy()
    if g.kind == "l1":
        leaves = (active == 0) & (np.abs(s) > g.lam)
        corrected[leaves] = np.sign(s[leaves])
        corrected[(active != 0) & (active * y < 0)] = 0
        return corrected
    width = g.lower < g.upper  # at l_i = u_i the normal cone is the whole line
    corrected[width & (((active < 0) & (s > 0)) | ((active > 0) & (s < 0)))] = 0
    free = active == 0
    corrected[free & (y < g.lower)] = -1
    corrected[free & (y > g.upper)] = 1
    return corrected


def reference_solve(problem: ProblemSpec, accuracy: float = 1e-10) -> ReferenceSolution:
    """High-accuracy KKT point, deterministic per problem.

    Both blocks quadratic: the KKT system solved directly by LU
    (:func:`_kkt_solve`), by least squares on the same matrix when it is
    singular.  Otherwise, or when that point misses the accuracy: plain
    ADMM (:func:`plain_admm`), whose l1/box tail is polished by a direct
    solve of the reduced KKT system of y's active set, as in OSQP
    (Stellato et al., Math. Prog. Comp. 2020).  Plain ADMM runs after a
    least-squares check that b is in range([A B]), which a B with B^T B
    diagonal and m nonzero entries on it passes without the solve.  Only a
    point whose KKT residual meets the accuracy is returned."""
    if accuracy < 1e-12:
        raise ValueError("requested accuracy below 1e-12 is not supported")
    f, g = problem.f, problem.g
    A, B, b = problem.A, problem.B, problem.b
    if f.kind == g.kind == "quadratic":
        K, rhs, point = _kkt_solve(problem)
        if point is None or point.kkt_residual > accuracy:  # a singular KKT system
            point = _kkt_point(problem, np.linalg.lstsq(K, rhs, rcond=None)[0])
        if point.kkt_residual <= accuracy:
            return point
        # still singular; fall through to the iterative path
    # plain ADMM cannot converge when the constraint has no solution; a B
    # whose B^T B is diagonal with m nonzero entries has m orthogonal nonzero
    # columns, which reach every b
    BtB = B.T @ B
    if not (_is_diagonal(BtB) and np.count_nonzero(np.diag(BtB)) == len(b)):
        AB = np.hstack([A, B])
        miss = AB @ np.linalg.lstsq(AB, b, rcond=None)[0] - b
        gap = float(np.sqrt(miss @ miss))
        if gap > _FEASIBILITY_TOL * (1.0 + float(np.sqrt(b @ b))):
            raise ValueError(f"Ax + By = b is infeasible: b is not in range([A B]) (residual {gap})")
    x, y, gamma, res = plain_admm(problem, beta=1.0, accuracy=accuracy)
    if res > accuracy:
        raise RuntimeError(
            f"reference solver hit the iteration cap with residual {res} > {accuracy}"
        )
    return ReferenceSolution(x, y, gamma, res)

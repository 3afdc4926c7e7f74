"""Test helpers: operator constructors, and independent oracles that tests
compare the solver's closed-form checks with.

``subgradient`` draws valid subgradients for the ``membership_distance``
oracle; ``sampled_eps_check`` is the sampled eps-subdifferential inequality
that ``FunctionDescriptor.fenchel_young`` decides exactly;
``plain_admm_per_iteration_solve`` and ``sigma_feasible_scalar`` are the
unfactored and unvectorized forms of the reference ADMM and the sigma scan.
``realized_step`` forms a solver step from each family's (anchor, a, s)
formula, ``dense_realized`` the operators of a schedule at k as dense
matrices, and ``applied`` the matrix an operator or a view applies.
``ZERO_F_PROBLEM`` is a problem JSON with a zero f and n_x > m.
``break_second_stacked_call`` falsifies one row of one certificate's
membership distance.
"""

import math

import numpy as np

from vmpadmm.admm import AdmmStep
from vmpadmm.linalg import PsdOperator
from vmpadmm.problems import FunctionDescriptor

SAMPLES = 200
TOL = 1e-8
SQRT2 = math.sqrt(2.0)

ZERO_F_PROBLEM = {  # n_x > m: a singular x-system, and a singular KKT system
    "A": [[1.0, 0.5, 0.0, 0.2], [0.0, 1.0, 0.3, 0.4]], "B": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, -1.0],
    "f": {"type": "zero"}, "g": {"type": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.5, -0.5]},
}


def identity(dim, scale=1.0):
    """scale * I, flagged definite when scale > 0."""
    return PsdOperator(scale * np.eye(dim), definite=scale > 0)


def zero_operator(dim):
    return PsdOperator(np.zeros((dim, dim)))


def subgradient(desc, x, rng=None):
    """One valid subgradient of ``desc`` at x (errors if x is outside the
    domain); with ``rng``, a random element of a box's normal cone."""
    x = np.asarray(x, dtype=float)
    if desc.kind == "zero":
        return np.zeros(desc.dim)
    if desc.kind == "quadratic":
        return desc.Q @ x + desc.q
    if desc.kind == "l1":
        return desc.lam * np.sign(x)
    span = 1.0 + np.abs(desc.upper - desc.lower).max(initial=0.0)
    tol = 1e-10 * span
    if np.any(x < desc.lower - tol) or np.any(x > desc.upper + tol):
        raise ValueError("point outside the box domain has empty subdifferential")
    g = np.zeros(desc.dim)
    if rng is not None:
        at_lo, at_hi = x <= desc.lower + tol, x >= desc.upper - tol
        t = rng.uniform(0.0, 1.0, size=desc.dim)
        g = np.where(at_lo, -t, np.where(at_hi, t, 0.0))
        g = np.where(at_lo & at_hi, rng.normal(size=desc.dim), g)
    return g


def sampled_eps_check(desc, s, x, eps, rng, count=SAMPLES):
    """True when no sampled x' in dom f violates
    f(x') >= f(x) + <s, x' - x> - eps beyond ``TOL`` relative to the
    magnitudes of f and eps; False also when x is outside dom f."""
    X = desc.sample_domain(count, x, rng)
    fvals = desc.values(X)
    base = float(desc.values(x)[0])
    if not np.isfinite(base):
        return False
    lhs = fvals - base - (X - x) @ s + eps
    scale = 1.0 + np.abs(fvals[np.isfinite(fvals)]).max(initial=0.0) + abs(eps)
    return float(lhs[np.isfinite(lhs)].min(initial=np.inf)) >= -TOL * scale


def plain_admm_per_iteration_solve(problem, beta, iters):
    """The first ``iters`` textbook ADMM iterates (x, y, gamma) from zero,
    solving each linear system afresh with ``np.linalg.solve`` in every
    iteration: the oracle for the factored ``plain_admm_iterates``."""
    A, B, b, f, g = problem.A, problem.B, problem.b, problem.f, problem.g
    n_x, n_y, m = problem.dims
    y, gamma = np.zeros(n_y), np.zeros(m)
    x_mat = beta * A.T @ A + (f.Q if f.kind == "quadratic" else 0.0)
    y_mat = beta * B.T @ B + (g.Q if g.kind == "quadratic" else 0.0)
    out = []
    for _ in range(iters):
        rhs = A.T @ gamma - beta * A.T @ (B @ y - b) - (f.q if f.kind == "quadratic" else 0.0)
        x = np.linalg.solve(x_mat, rhs)
        q_lin = -B.T @ gamma + beta * B.T @ (A @ x - b)
        if g.kind == "l1":
            y = np.sign(-q_lin) * np.maximum(np.abs(q_lin) - g.lam, 0.0) / np.diag(y_mat)
        elif g.kind == "box":
            y = np.clip(-q_lin / np.diag(y_mat), g.lower, g.upper)
        else:
            y = np.linalg.solve(y_mat, -q_lin - (g.q if g.kind == "quadratic" else 0.0))
        gamma = gamma - beta * (A @ x + B @ y - b)
        out.append((x, y, gamma))
    return out


def sigma_feasible_scalar(theta, sigma):
    """The admissibility test of ``sigma_feasible`` for one sigma, with the
    early exits of a scalar implementation: the reference for the
    vectorized scan."""
    a = sigma * (1.0 + theta) - 1.0
    d = sigma - (1.0 - theta) ** 2
    off = (sigma + theta - 1.0) * (1.0 - theta)
    if not (a > 0.0 and a * d - off * off > 0.0):
        return False
    if sigma <= max((1.0 - theta) ** 2, 1.0 - theta, 1.0 / (1.0 + theta)):
        return False
    return (sigma + theta - 1.0) * (4.0 - 2.0 * SQRT2) / (SQRT2 * theta) < sigma


def realized_step(run, x_prev, y_prev, gamma_prev, k):
    """Step k of ``run`` from (x_prev, y_prev, gamma_prev), with each family
    applied by its formula Q_k u = (s f_k) (Q_0 u) + a u from the schedule's
    (anchor, a, s) triples (the a u term only for a != 0), and each P_k's
    product subtracted, a zero one's too.  The oracle the solver's step must
    equal bit for bit; it solves with the run's own block systems, so the
    subproblems' factors are shared."""
    problem, schedule, theta = run.problem, run.schedule, run.params.theta
    A, B, b = problem.A, problem.B, problem.b
    f = schedule.factor(k)

    def family_apply(name, u):
        Q, a, s = schedule.family(name)
        Qu = (s * f) * (Q.matrix @ u)
        return Qu + a * u if a else Qu

    def solve(system, name, shift, prev):
        N = system.N
        q_lin = -N.T @ gamma_prev + N.T @ family_apply("H", shift) - family_apply(name, prev)
        return system.solve(f, q_lin), q_lin

    By_prev = B @ y_prev
    x, q_x = solve(run._systems[0], "R", By_prev - b, x_prev)
    Ax = A @ x
    y, q_y = solve(run._systems[1], "S", Ax - b, y_prev)
    primal = Ax + B @ y - b
    gamma, gamma_t = gamma_prev - theta * family_apply("H", primal), gamma_prev - family_apply("H", Ax + By_prev - b)
    return AdmmStep(k, x, y, gamma, gamma_t, q_x, q_y, primal)


def dense_realized(schedule, k):
    """(H_k, R_k, S_k) as dense operators a I + s f_k anchor, formed here from
    each family's (anchor, a, s) and f_k, not as views of the anchor."""
    f = schedule.factor(k)
    return tuple(
        PsdOperator(a * np.eye(Q.dim) + (s * f) * Q.matrix) for Q, a, s in map(schedule.family, "HRS")
    )


def applied(op):
    """The matrix that an operator or a single view applies (its transpose,
    row by row, which is the matrix itself for a symmetric one)."""
    return op.apply(np.eye(op.dim))


def break_second_stacked_call(monkeypatch, kind, row, by=1.0):
    """Wrap ``FunctionDescriptor.membership_distance`` so that its second call
    on a stack of rows for a descriptor of ``kind`` adds ``by`` to the
    distance of ``row``.  A block's first such call is its solve's oracle and
    the second its iterates' membership, which the certificate reads; calls
    on a single point (the reference solve's check) are left alone."""
    distance, calls = FunctionDescriptor.membership_distance, []

    def wrapped(desc, v, x):
        dist = distance(desc, v, x)
        if desc.kind == kind and np.ndim(v) == 2:
            calls.append(len(v))
            if len(calls) == 2:
                dist = dist.copy()
                dist[row] += by
        return dist

    monkeypatch.setattr(FunctionDescriptor, "membership_distance", wrapped)
    return calls

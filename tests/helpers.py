"""Test helpers: operator constructors, and independent oracles that tests
compare the solver's closed-form checks with.

``subgradient`` draws valid subgradients for the ``membership_distance``
oracle; ``sampled_eps_check`` is the sampled eps-subdifferential inequality
that ``FunctionDescriptor.fenchel_young`` decides exactly;
``plain_admm_per_iteration_solve`` and ``sigma_feasible_scalar`` are the
unfactored and unvectorized forms of the reference ADMM and the sigma scan.
``realized_step`` forms a solver step through the schedule's realized
operators.  ``ZERO_F_PROBLEM`` is a problem JSON with a zero f and n_x > m.
"""

import math

import numpy as np

from vmpadmm.admm import AdmmStep
from vmpadmm.linalg import PsdOperator

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
    """Step k of ``run`` from (x_prev, y_prev, gamma_prev), formed through the
    operators ``schedule.realize(k)`` returns: H_k, R_k and S_k applied as
    views, and each P_k's product subtracted, a zero one's too.  The oracle a
    step from H_0, P_0 and f_k alone must equal bit for bit; it solves with
    the run's own block systems, so the subproblems' factors are shared."""
    problem, schedule, theta = run.problem, run.schedule, run.params.theta
    A, B, b = problem.A, problem.B, problem.b
    H_k, R_k, S_k = schedule.realize(k)
    f = schedule.factor(k)

    def solve(system, P_k, shift, prev):
        N = system.N
        q_lin = -N.T @ gamma_prev + N.T @ H_k.apply(shift) - P_k.apply(prev)
        return system.solve(f, q_lin), q_lin

    By_prev = B @ y_prev
    x, q_x = solve(run._systems[0], R_k, By_prev - b, x_prev)
    Ax = A @ x
    y, q_y = solve(run._systems[1], S_k, Ax - b, y_prev)
    primal = Ax + B @ y - b
    gamma, gamma_t = gamma_prev - theta * H_k.apply(primal), gamma_prev - H_k.apply(Ax + By_prev - b)
    return AdmmStep(k, x, y, gamma, gamma_t, q_x, q_y, primal)

"""Test helpers: operator constructors, and independent oracles that tests
compare the solver's closed-form checks with.

``subgradient`` draws valid subgradients for the ``membership_distance``
oracle; ``sampled_eps_check`` is the sampled eps-subdifferential inequality
that ``FunctionDescriptor.fenchel_young`` decides exactly.
"""

import numpy as np

from vmpadmm.linalg import PsdOperator

SAMPLES = 200
TOL = 1e-8


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

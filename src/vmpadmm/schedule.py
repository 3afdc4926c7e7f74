"""Variable-metric schedules {H_k}, {R_k}, {S_k} with drift bookkeeping.

A schedule describes, for every iteration k, a definite penalty metric H_k
and semidefinite proximal metrics R_k and S_k, together with a drift
sequence {c_k} whose partial sums and products are capped by C_S and C_P.
Successive operators of each family must satisfy the two-sided sandwich

    (1/(1+c_k)) Q_k <= Q_{k+1} <= (1+c_k) Q_k.

Each family is one triple (anchor, a, s), and Q_k = a I + s f_k anchor for
one scalar drift factor f_k shared by all families: s = 1, a = 0 for a
scaled family (Q_k = f_k Q_0; a zero family is the scaled zero operator),
and s = -1, a = tau with anchor G = A^T H_0 A for a linearized
R_k = tau I - f_k G.  The factor moves by exactly the allowed
(1+c_k)^{+-1}, alternating up and down, to stress the sandwich at its
boundary; under the zero law f_k = 1.  A schedule hands out only the
triples, the factors and validation: the run forms Q_k as a view
``anchor.affine(a, s f_k)`` (:meth:`PsdOperator.affine`), which runs no
decomposition, so the operators of a block of k are one stack of views.
The PSD-ness and the sandwich of every k are affine in the anchor's
eigenvalue and are decided at its two extremes, for all k at once.
"""

from __future__ import annotations

import json
from itertools import repeat

import numpy as np

from .linalg import BlockDiagOperator, PsdOperator, affine_leq, block_diag, congruence, finite_array

__all__ = [
    "MetricSchedule",
    "ScheduleError",
    "drift_sequence",
    "assemble_Mk",
    "load_schedule",
    "schedule_from_dict",
    "constant_schedule",
]

THETA_MAX = (np.sqrt(5.0) + 1.0) / 2.0
K_MAX_LIMIT = 1_000_000  # the schedule stores O(k_max) drift data
_VALIDATE_BLOCK = 1 << 14  # iterations validated per vectorized pass


def drift_sequence(c0: float, law: str, k_max: int) -> tuple[np.ndarray, float]:
    """(c_0, ..., c_{k_max}) of a drift law and an analytic bound on
    sum_{k > k_max} c_k: ``zero`` gives c_k = 0, ``inverse_square``
    c_k = c0 / (k+1)^2."""
    if law not in ("zero", "inverse_square"):
        raise ValueError(f"unknown drift law {law!r}")
    if c0 < 0:
        raise ValueError("c0 must be nonnegative")
    if law == "zero" or c0 == 0.0:
        return np.zeros(k_max + 1), 0.0
    k = np.arange(k_max + 1, dtype=float)
    # sum_{k>k_max} c0/(k+1)^2 <= c0 * integral_{k_max+1}^inf dt/t^2
    return c0 / (k + 1.0) ** 2, c0 / (k_max + 1.0)


def _drift_factors(c_seq: np.ndarray) -> np.ndarray:
    """Cumulative alternating scale factors: f_0 = 1, f_{k+1} = f_k*(1+c_k)^{+-1}."""
    steps = 1.0 + c_seq
    steps[1::2] = 1.0 / steps[1::2]
    return np.concatenate(([1.0], np.cumprod(steps)))


class ScheduleError(ValueError):
    """A schedule that fails :meth:`MetricSchedule.validate` (the solver must not run it)."""


class MetricSchedule:
    """Operator sequences up to a horizon k_max, given by the drift factors
    f_k and one (anchor, a, s) triple per family: Q_k = a I + s f_k anchor.
    Construction checks no PSD-ness; :meth:`validate` does, k = 0 included."""

    def __init__(self, families, k_max: int, c0: float = 0.0, law: str = "zero"):
        if not 1 <= k_max <= K_MAX_LIMIT:
            raise ValueError(f"k_max must lie in [1, {K_MAX_LIMIT}], got {k_max}")
        H, a_h, s_h = families[0]
        if (a_h, s_h) != (0.0, 1.0) or not H.definite:
            raise ValueError("H family must be a positive definite scaled operator")
        self.k_max = k_max
        self.c_seq, tail = drift_sequence(c0, law, k_max)
        self.C_S = float(self.c_seq.sum() + tail)
        self.C_P = float(np.prod(1.0 + self.c_seq) * np.exp(tail))
        self._factors = _drift_factors(self.c_seq)
        self._families = tuple(families)  # (anchor, a, s) of H, R, S: Q_k = a I + s f_k anchor

    def factor(self, k: int) -> float:
        """The drift factor f_k shared by every family; for an array of k,
        the array of their factors."""
        return self._factors[k] if isinstance(k, np.ndarray) else float(self._factors[k])

    def family(self, name: str) -> tuple[PsdOperator, float, float]:
        """The (anchor, a, s) triple of the family ``"H"``, ``"R"`` or ``"S"``:
        its operator at k is a I + s f_k anchor."""
        return self._families["HRS".index(name)]

    def validate(self) -> None:
        """Check that every operator is PSD, the two-sided sandwich for every
        k and family, and that every c_k <= 1 (the solver needs it); raise
        :class:`ScheduleError` on the first failing check, naming an operator
        that is not PSD at its first k, else the first three sandwich
        failures as (k, family), else the first three k with c_k > 1."""
        c_over_one = np.flatnonzero(self.c_seq > 1.0)[:3]
        bad = self._sandwich_failures()[:3] or [(int(k), "c") for k in c_over_one]
        if bad:
            raise ScheduleError(f"schedule validation failed at (k, family) = {bad}")

    def _sandwich_failures(self) -> list[tuple[int, str]]:
        """Every (k, family) whose sandwich fails, sorted.  Both checks are
        affine in the anchor's eigenvalue, so ``affine_leq`` decides them for
        a block of k per vectorized pass."""
        failures = []
        for name, (Q, a, s) in zip("HRS", self._families):
            for k0 in range(0, self.k_max, _VALIDATE_BLOCK):  # blocks of k keep temporaries in cache
                b = s * self._factors[k0 : min(k0 + _VALIDATE_BLOCK, self.k_max) + 1]
                up = 1.0 + self.c_seq[k0 : k0 + len(b) - 1]
                psd = affine_leq(0.0, 0.0, a, b, Q)
                if not psd.all():
                    k = k0 + int(np.argmin(psd))
                    raise ScheduleError(f"schedule validation failed: {name}_k is not PSD, first at k = {k}")
                lower = affine_leq(a / up, b[:-1] / up, a, b[1:], Q)  # Q_k / (1 + c_k) <= Q_{k+1}
                ok = lower & affine_leq(a, b[1:], up * a, up * b[:-1], Q)  # Q_{k+1} <= (1 + c_k) Q_k
                failures += zip((k0 + np.flatnonzero(~ok)).tolist(), repeat(name))
        return sorted(failures)


def assemble_Mk(
    H_k: PsdOperator,
    R_k: PsdOperator,
    S_k: PsdOperator,
    B: np.ndarray,
    theta: float,
) -> BlockDiagOperator:
    """Product-space metric blkdiag(R_k, B^T H_k B + S_k, theta^{-1} H_k^{-1}),
    from H_k and S_k given by their matrices; R_k may be a view.  The middle
    block is exactly symmetric, as :func:`congruence` and S_k are."""
    if not (0.0 < theta < THETA_MAX):
        raise ValueError(f"theta must lie in (0, {THETA_MAX}), got {theta}")
    mid = congruence(H_k.matrix, np.asarray(B, dtype=float)) + S_k.matrix
    return block_diag([R_k, PsdOperator(mid), H_k.inverse().affine(0.0, 1.0 / theta)])


# -- JSON configuration ------------------------------------------------------

def _scaled_identity(scale: float, dim: int, family: str):
    # scale I as the family's (anchor, a, s): only H is flagged definite, as R and S need only be PSD
    return PsdOperator(scale * np.eye(dim), definite=family == "H" and scale > 0), 0.0, 1.0


def _family_from_descriptor(desc: dict, dim: int, family: str, H0=None, A=None):
    """The (anchor, a, s) triple of one operator descriptor; a linearized R
    reads its anchor G = A^T H_0 A from H's anchor ``H0`` and A."""
    if not isinstance(desc, dict):
        raise ValueError(f"{family} must be an object")
    kind = desc.get("type")
    if kind == "scaled_identity":
        return _scaled_identity(float(finite_array(desc["scale"], f"{family} scale", 0)), dim, family)
    if kind == "zero":
        return _scaled_identity(0.0, dim, family)
    if kind == "dense":
        matrix = finite_array(desc["matrix"], f"{family} matrix entries", 2)
        if matrix.shape != (dim, dim):
            raise ValueError(
                f"{family} dense matrix has shape {matrix.shape}, but {family} acts on dimension {dim}"
            )
        return PsdOperator(matrix, definite=family == "H"), 0.0, 1.0
    if kind == "linearized":
        if family != "R":
            raise ValueError("linearized descriptor is only valid for the R family")
        tau = float(finite_array(desc["tau"], "R tau", 0))
        if A is None:
            raise ValueError("linearized R rule requires the constraint matrix A")
        G = congruence(H0.matrix, np.asarray(A, dtype=float))  # R_k = tau I - f_k G
        return PsdOperator(G), tau, -1.0
    raise ValueError(f"unknown operator descriptor type {kind!r}")


def schedule_from_dict(
    cfg: dict,
    dims: tuple[int, int, int],
    A: np.ndarray | None = None,
) -> MetricSchedule:
    """Build a schedule from the JSON object format.

    ``dims`` is (dim_x, dim_y, dim_gamma); operator descriptors that need a
    dimension (scaled_identity, zero) take it from the matching space.
    """
    n_x, n_y, m = dims
    if not isinstance(cfg, dict):
        raise ValueError("a schedule must be a JSON object")
    for key in ("H", "R", "S", "k_max"):
        if key not in cfg:
            raise ValueError(f"schedule config missing field {key!r}")
    c_cfg = cfg.get("c", {"c0": 0.0, "law": "zero"})
    if not isinstance(c_cfg, dict):
        raise ValueError("c must be an object")
    h = _family_from_descriptor(cfg["H"], m, "H")
    r = _family_from_descriptor(cfg["R"], n_x, "R", h[0], A)
    s = _family_from_descriptor(cfg["S"], n_y, "S")
    c0 = float(finite_array(c_cfg.get("c0", 0.0), "c0", 0))
    if type(cfg["k_max"]) is not int:
        raise ValueError("k_max must be an integer")
    return MetricSchedule((h, r, s), cfg["k_max"], c0=c0, law=c_cfg.get("law", "zero"))


def load_schedule(path, dims, A=None) -> MetricSchedule:
    with open(path) as fh:
        cfg = json.load(fh)
    return schedule_from_dict(cfg, dims, A=A)


def constant_schedule(
    dims: tuple[int, int, int],
    k_max: int,
    h_scale: float = 1.0,
    r_scale: float = 0.0,
    s_scale: float = 0.0,
) -> MetricSchedule:
    """Constant schedule H = h*I, R = r*I, S = s*I with c_k = 0, built as
    the ``scaled_identity`` descriptors of the JSON format are."""
    n_x, n_y, m = dims
    families = [
        _family_from_descriptor({"type": "scaled_identity", "scale": scale}, dim, family)
        for family, scale, dim in (("H", h_scale, m), ("R", r_scale, n_x), ("S", s_scale, n_y))
    ]
    return MetricSchedule(families, k_max)

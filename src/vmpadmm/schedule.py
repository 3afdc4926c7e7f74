"""Variable-metric schedules {H_k}, {R_k}, {S_k} with drift bookkeeping.

A schedule realizes, for every iteration k, a definite penalty metric H_k
and semidefinite proximal metrics R_k and S_k, together with a drift
sequence {c_k} whose partial sums and products are capped by C_S and C_P.
Successive operators of each family must satisfy the two-sided sandwich

    (1/(1+c_k)) Q_k <= Q_{k+1} <= (1+c_k) Q_k.

The built-in nonconstant realization moves each family by exactly the
allowed factor, alternating up and down, to stress the sandwich at its
boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import BlockDiagOperator, PsdOperator, block_diag, operator_leq

__all__ = [
    "OperatorRule",
    "ScheduleRule",
    "MetricSchedule",
    "ValidationReport",
    "assemble_Mk",
    "load_schedule",
    "schedule_from_dict",
    "constant_schedule",
]

THETA_MAX = (np.sqrt(5.0) + 1.0) / 2.0
_SANDWICH_TOL = 1e-10


@dataclass(frozen=True)
class OperatorRule:
    """How one operator family evolves with k.

    kinds:
      - ``constant``: Q_k = base for all k.
      - ``scaled_identity_decay``: Q_k = base * prod_{i<k} (1+c_i)^{+-1},
        alternating up/down (also applies to a dense base).
      - ``linearized``: R_k = tau*I - A^T H_k A (R family only).
      - ``zero``: Q_k = 0.
      - ``custom_list``: explicit operators per k.
    """

    kind: str
    base: PsdOperator | None = None
    tau: float | None = None
    operators: tuple[PsdOperator, ...] | None = None

    def __post_init__(self):
        kinds = {"constant", "scaled_identity_decay", "linearized", "zero", "custom_list"}
        if self.kind not in kinds:
            raise ValueError(f"unknown operator rule kind {self.kind!r}")
        if self.kind in ("constant", "scaled_identity_decay", "zero") and self.base is None:
            raise ValueError(f"rule {self.kind!r} requires a base operator")
        if self.kind == "linearized" and self.tau is None:
            raise ValueError("linearized rule requires tau")
        if self.kind == "custom_list" and not self.operators:
            raise ValueError("custom_list rule requires operators")


@dataclass(frozen=True)
class ScheduleRule:
    """Rules for the three families plus the drift-law parameters."""

    h_rule: OperatorRule
    r_rule: OperatorRule
    s_rule: OperatorRule
    c0: float = 0.0
    law: str = "zero"  # "zero" | "inverse_square"

    def __post_init__(self):
        if self.law not in ("zero", "inverse_square"):
            raise ValueError(f"unknown drift law {self.law!r}")
        if self.c0 < 0:
            raise ValueError("c0 must be nonnegative")

    def c_seq(self, k_max: int) -> np.ndarray:
        if self.law == "zero" or self.c0 == 0.0:
            return np.zeros(k_max + 1)
        k = np.arange(k_max + 1, dtype=float)
        return self.c0 / (k + 1.0) ** 2

    def c_tail_bound(self, k_max: int) -> float:
        """Analytic bound on sum_{k > k_max} c_k."""
        if self.law == "zero" or self.c0 == 0.0:
            return 0.0
        # sum_{k>k_max} c0/(k+1)^2 <= c0 * integral_{k_max+1}^inf dt/t^2
        return self.c0 / (k_max + 1.0)


def _drift_factors(c_seq: np.ndarray) -> np.ndarray:
    """Cumulative alternating scale factors: f_0 = 1, f_{k+1} = f_k*(1+c_k)^{+-1}."""
    factors = np.ones(len(c_seq) + 1)
    for k, c in enumerate(c_seq):
        step = (1.0 + c) if k % 2 == 0 else 1.0 / (1.0 + c)
        factors[k + 1] = factors[k] * step
    return factors


@dataclass
class ValidationReport:
    """Per-k, per-family sandwich check results plus drift sums."""

    sandwich_failures: list[tuple[int, str]] = field(default_factory=list)
    c_sum: float = 0.0
    c_prod: float = 1.0
    c_over_one: list[int] = field(default_factory=list)
    C_S: float = 0.0
    C_P: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.sandwich_failures

    def ok_for_admm(self) -> bool:
        return self.ok and not self.c_over_one


class MetricSchedule:
    """Realized operator sequences up to a horizon k_max.

    Deterministic: realizing the same rule twice yields identical operators.
    """

    def __init__(self, rule: ScheduleRule, k_max: int, A: np.ndarray | None = None):
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        self.rule = rule
        self.k_max = k_max
        self.A = None if A is None else np.asarray(A, dtype=float)
        self.c_seq = rule.c_seq(k_max)
        self.C_S = float(self.c_seq.sum() + rule.c_tail_bound(k_max))
        self.C_P = float(np.prod(1.0 + self.c_seq) * np.exp(rule.c_tail_bound(k_max)))
        self._factors = _drift_factors(self.c_seq)
        self._h = [self._realize_family(rule.h_rule, k, definite=True) for k in range(k_max + 1)]
        self._r = [
            self._realize_linearized(k) if rule.r_rule.kind == "linearized"
            else self._realize_family(rule.r_rule, k)
            for k in range(k_max + 1)
        ]
        self._s = [self._realize_family(rule.s_rule, k) for k in range(k_max + 1)]

    def _realize_family(self, orule: OperatorRule, k: int, definite: bool = False) -> PsdOperator:
        if orule.kind == "zero":
            if definite:
                raise ValueError("H family must be positive definite, got zero rule")
            return orule.base
        if orule.kind == "custom_list":
            ops = orule.operators
            op = ops[min(k, len(ops) - 1)]
        elif orule.kind == "constant":
            op = orule.base
        elif orule.kind == "scaled_identity_decay":
            op = PsdOperator(self._factors[k] * orule.base.matrix, definite=orule.base.definite)
        else:
            raise ValueError(f"cannot realize rule kind {orule.kind!r} here")
        if definite and not op.definite:
            # re-validate definiteness rather than trusting the flag
            op = PsdOperator(op.matrix, definite=True)
        return op

    def _realize_linearized(self, k: int) -> PsdOperator:
        if self.A is None:
            raise ValueError("linearized R rule requires the constraint matrix A")
        h = self._h[k].matrix
        mat = self.rule.r_rule.tau * np.eye(self.A.shape[1]) - self.A.T @ h @ self.A
        return PsdOperator(0.5 * (mat + mat.T))

    def realize(self, k: int) -> tuple[PsdOperator, PsdOperator, PsdOperator]:
        """Return (H_k, R_k, S_k); index 0 gives the anchor operators."""
        if k < 0 or k > self.k_max:
            raise ValueError(f"iteration index {k} outside horizon [0, {self.k_max}]")
        return self._h[k], self._r[k], self._s[k]

    def validate(self) -> ValidationReport:
        """Check the two-sided sandwich for every k and family, and the
        drift-sum caps (the solver needs every c_k <= 1).  Failures are
        reported, not raised."""
        rep = ValidationReport()
        rep.c_sum = float(self.c_seq.sum())
        rep.c_prod = float(np.prod(1.0 + self.c_seq))
        rep.C_S = self.C_S
        rep.C_P = self.C_P
        rep.c_over_one = [int(k) for k in np.nonzero(self.c_seq > 1.0)[0]]
        for k in range(self.k_max):
            c = float(self.c_seq[k])
            for name, fam in (("H", self._h), ("R", self._r), ("S", self._s)):
                q0, q1 = fam[k], fam[k + 1]
                lower = PsdOperator(q0.matrix / (1.0 + c))
                upper = PsdOperator((1.0 + c) * q0.matrix)
                if not (
                    operator_leq(lower, q1, _SANDWICH_TOL)
                    and operator_leq(q1, upper, _SANDWICH_TOL)
                ):
                    rep.sandwich_failures.append((k, name))
        return rep


def assemble_Mk(
    H_k: PsdOperator,
    R_k: PsdOperator,
    S_k: PsdOperator,
    B: np.ndarray,
    theta: float,
) -> BlockDiagOperator:
    """Product-space metric blkdiag(R_k, B^T H_k B + S_k, theta^{-1} H_k^{-1})."""
    if not (0.0 < theta < THETA_MAX):
        raise ValueError(f"theta must lie in (0, {THETA_MAX}), got {theta}")
    B = np.asarray(B, dtype=float)
    mid = B.T @ H_k.matrix @ B + S_k.matrix
    mid_op = PsdOperator(0.5 * (mid + mid.T))
    gam = PsdOperator(H_k.inverse().matrix / theta, definite=True)
    return block_diag([R_k, mid_op, gam])


# -- JSON configuration ------------------------------------------------------

def _operator_from_descriptor(desc: dict, dim: int, family: str) -> OperatorRule:
    kind = desc.get("type")
    if kind == "scaled_identity":
        scale = float(desc["scale"])
        base = PsdOperator(scale * np.eye(dim), definite=scale > 0)
        return OperatorRule("scaled_identity_decay", base=base)
    if kind == "dense":
        base = PsdOperator(np.asarray(desc["matrix"], dtype=float))
        return OperatorRule("scaled_identity_decay", base=base)
    if kind == "zero":
        return OperatorRule("zero", base=PsdOperator(np.zeros((dim, dim))))
    if kind == "linearized":
        if family != "R":
            raise ValueError("linearized descriptor is only valid for the R family")
        return OperatorRule("linearized", tau=float(desc["tau"]))
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
    for key in ("H", "R", "S", "k_max"):
        if key not in cfg:
            raise ValueError(f"schedule config missing field {key!r}")
    c_cfg = cfg.get("c", {"c0": 0.0, "law": "zero"})
    h = _operator_from_descriptor(cfg["H"], m, "H")
    r = _operator_from_descriptor(cfg["R"], n_x, "R")
    s = _operator_from_descriptor(cfg["S"], n_y, "S")
    law = c_cfg.get("law", "zero")
    c0 = float(c_cfg.get("c0", 0.0))
    if law == "zero":
        # constant operators under a zero drift law
        h = OperatorRule("constant", base=h.base) if h.kind == "scaled_identity_decay" else h
        r = OperatorRule("constant", base=r.base) if r.kind == "scaled_identity_decay" else r
        s = OperatorRule("constant", base=s.base) if s.kind == "scaled_identity_decay" else s
    rule = ScheduleRule(h_rule=h, r_rule=r, s_rule=s, c0=c0, law=law)
    return MetricSchedule(rule, int(cfg["k_max"]), A=A)


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
    """Constant schedule H = h*I, R = r*I, S = s*I with c_k = 0."""
    n_x, n_y, m = dims

    def _rule(scale, dim):
        if scale == 0.0:
            return OperatorRule("zero", base=PsdOperator(np.zeros((dim, dim))))
        return OperatorRule("constant", base=PsdOperator(scale * np.eye(dim), definite=True))

    rule = ScheduleRule(
        h_rule=_rule(h_scale, m), r_rule=_rule(r_scale, n_x), s_rule=_rule(s_scale, n_y)
    )
    return MetricSchedule(rule, k_max)

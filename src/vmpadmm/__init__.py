"""Variable-metric proximal ADMM with runtime convergence certification."""

from .admm import (
    CertifiedBlock,
    KktResidualCertificate,
    SubproblemError,
    ThetaParams,
    VmPadmmRun,
    compute_d0_admm,
    compute_sigma_theta,
    sigma_feasible,
    tau_theta,
)
from .hpe import HpeIterate, HpeState, RateBounds, check_error_condition
from .linalg import BlockDiagOperator, PsdOperator, block_diag
from .problems import (
    FunctionDescriptor,
    ProblemSpec,
    ReferenceSolution,
    generate,
    kkt_residual,
    load_problem,
    reference_solve,
)
from .schedule import (
    THETA_MAX,
    MetricSchedule,
    ScheduleError,
    assemble_Mk,
    constant_schedule,
    load_schedule,
    schedule_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDiagOperator",
    "CertifiedBlock",
    "FunctionDescriptor",
    "HpeIterate",
    "HpeState",
    "KktResidualCertificate",
    "MetricSchedule",
    "ProblemSpec",
    "PsdOperator",
    "RateBounds",
    "ReferenceSolution",
    "ScheduleError",
    "SubproblemError",
    "THETA_MAX",
    "ThetaParams",
    "VmPadmmRun",
    "assemble_Mk",
    "block_diag",
    "check_error_condition",
    "compute_d0_admm",
    "compute_sigma_theta",
    "constant_schedule",
    "generate",
    "kkt_residual",
    "load_problem",
    "load_schedule",
    "reference_solve",
    "schedule_from_dict",
    "sigma_feasible",
    "tau_theta",
    "__version__",
]

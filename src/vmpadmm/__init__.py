"""Variable-metric proximal ADMM with runtime convergence certification.

The top level holds what the library quick start in README uses; every other
name lives in its module (``vmpadmm.admm``, ``vmpadmm.schedule``, ...)."""

from .admm import VmPadmmRun, compute_sigma_theta
from .problems import generate
from .schedule import ScheduleError, constant_schedule

__all__ = ["ScheduleError", "VmPadmmRun", "compute_sigma_theta", "constant_schedule", "generate"]

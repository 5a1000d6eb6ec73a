"""Online complex-valued kernel adaptive filtering.

Complex kernel LMS (CKLMS) and its normalized variant run a complex LMS
in the complexification of a real RKHS, so nonlinear filtering of
complex signals reduces to real kernel evaluations on an R^(2*nu)
identification of the inputs. The package also ships the linear
complex NLMS baselines (strict and widely linear), a finite-difference
Wirtinger-derivative oracle for validating the gradients involved, and
a nonlinear channel equalization benchmark with a Monte-Carlo harness.
"""

from .channel import (
    ChannelConfig,
    EqualizationDataset,
    LearningCurve,
    build_dataset,
    generate_source,
    run_channel,
    run_experiment,
)
from .cklms import CklmsFilter, NoveltyCriterion, RunResult, StepResult
from .kernels import RealKernel, embed, kernel_eval, kernel_eval_many
from .linear import ComplexNlms
from .wirtinger import (
    GradientCheckReport,
    WirtingerPair,
    check_gradient,
    instantaneous_cost_check,
    numeric_wirtinger,
    property_suite,
)

__all__ = [
    "ChannelConfig",
    "CklmsFilter",
    "ComplexNlms",
    "EqualizationDataset",
    "GradientCheckReport",
    "LearningCurve",
    "NoveltyCriterion",
    "RealKernel",
    "RunResult",
    "StepResult",
    "WirtingerPair",
    "build_dataset",
    "check_gradient",
    "embed",
    "generate_source",
    "instantaneous_cost_check",
    "kernel_eval",
    "kernel_eval_many",
    "numeric_wirtinger",
    "property_suite",
    "run_channel",
    "run_experiment",
]

__version__ = "0.1.0"

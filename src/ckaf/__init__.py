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
from .cklms import CklmsFilter, NoveltyCriterion, StepResult, instantaneous_cost_check, load_dictionary
from .kernels import (
    RealKernel,
    embed,
    kernel_eval,
    kernel_eval_many,
    polynomial_feature_map,
)
from .linear import ComplexNlms
from .wirtinger import (
    GradientCheckReport,
    WirtingerPair,
    check_gradient,
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
    "StepResult",
    "WirtingerPair",
    "build_dataset",
    "check_gradient",
    "embed",
    "generate_source",
    "instantaneous_cost_check",
    "kernel_eval",
    "kernel_eval_many",
    "load_dictionary",
    "numeric_wirtinger",
    "polynomial_feature_map",
    "property_suite",
    "run_channel",
    "run_experiment",
]

__version__ = "0.1.0"

"""Core evaluation layer: experiment configuration, scheme evaluation,
Table 1 comparison and design-space sweeps (docs/architecture.md)."""

from .comparison import SchemeComparison, compare_schemes
from .config import ExperimentConfig, paper_experiment
from .design_space import DesignSpaceResult, SweepPoint, sweep_parameter
from .scheme_evaluator import SchemeEvaluator, SchemeResult

__all__ = [
    "DesignSpaceResult",
    "ExperimentConfig",
    "SchemeComparison",
    "SchemeEvaluator",
    "SchemeResult",
    "SweepPoint",
    "compare_schemes",
    "paper_experiment",
    "sweep_parameter",
]

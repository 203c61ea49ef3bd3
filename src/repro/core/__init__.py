"""Core evaluation layer: experiment configuration, scheme evaluation
and the Table 1 comparison (docs/architecture.md); design-space sweeps
run through :mod:`repro.engine`."""

from .comparison import SchemeComparison, compare_schemes
from .config import ExperimentConfig, paper_experiment
from .scheme_evaluator import SchemeEvaluator, SchemeResult

__all__ = [
    "ExperimentConfig",
    "SchemeComparison",
    "SchemeEvaluator",
    "SchemeResult",
    "compare_schemes",
    "paper_experiment",
]

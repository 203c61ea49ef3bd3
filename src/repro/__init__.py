"""repro — reproduction of "Leakage-Aware Interconnect for On-Chip Network"
(Tsai, Narayanan, Xie, Irwin; DATE 2005).

The package implements the paper's five crossbar designs (SC, DFC, DPC,
SDFC, SDPC) together with every substrate the evaluation needs: a
predictive 45 nm technology model (ITRS geometry + BPTM-style wire RC +
dual-Vt MOSFET leakage/drive models), an analytical circuit layer
(gates, RC trees, Elmore delay, state-dependent leakage), timing and
dual-Vt assignment, the power analyses of Table 1 (active/standby
leakage, total power, minimum idle time), and a cycle-based mesh NoC
simulator with power gating for the architecture-level evaluation.

Quickstart::

    from repro import compare_schemes, paper_experiment

    comparison = compare_schemes(paper_experiment())
    print(comparison.as_table_text())

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured record of every table and figure.
"""

from .core.comparison import SchemeComparison, compare_schemes
from .core.config import ExperimentConfig, paper_experiment
from .core.design_space import sweep_parameter
from .core.paths import describe_path, get_path, set_path, sweepable_paths
from .core.scheme_evaluator import SchemeEvaluator, SchemeResult
from .engine import DesignSpace, EvaluationCache, Evaluator, ResultSet
from .crossbar import (
    CrossbarConfig,
    CrossbarScheme,
    PortDirection,
    available_schemes,
    create_all_schemes,
    create_scheme,
)
from .errors import ReproError
from .power import (
    analyse_leakage,
    analyse_minimum_idle_time,
    analyse_total_power,
    evaluate_scheme,
)
from .technology import TechnologyLibrary, default_45nm

#: The model version: part of every cache key and checked in the fleet
#: handshake, so bump it whenever a record can change for the same config.
__version__ = "1.1.0"

__all__ = [
    "CrossbarConfig",
    "CrossbarScheme",
    "DesignSpace",
    "EvaluationCache",
    "Evaluator",
    "ExperimentConfig",
    "PortDirection",
    "ReproError",
    "ResultSet",
    "SchemeComparison",
    "SchemeEvaluator",
    "SchemeResult",
    "TechnologyLibrary",
    "__version__",
    "analyse_leakage",
    "analyse_minimum_idle_time",
    "analyse_total_power",
    "available_schemes",
    "compare_schemes",
    "create_all_schemes",
    "create_scheme",
    "default_45nm",
    "describe_path",
    "evaluate_scheme",
    "get_path",
    "paper_experiment",
    "set_path",
    "sweep_parameter",
    "sweepable_paths",
]

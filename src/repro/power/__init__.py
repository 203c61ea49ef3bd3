"""Power analysis: leakage, dynamic, total power, break-even and savings.

See ``docs/architecture.md``: these are the quantities of the paper's
Table 1.
"""

from .idle_time import IdleTimeAnalysis, analyse_minimum_idle_time
from .leakage_analysis import LeakageAnalysis, analyse_leakage
from .report import format_evaluation, format_table1
from .savings import (
    SchemeEvaluation,
    SchemeSavings,
    analyse_total_power,
    evaluate_scheme,
    savings_versus_baseline,
)
from .total_power import TotalPowerAnalysis

__all__ = [
    "IdleTimeAnalysis",
    "LeakageAnalysis",
    "SchemeEvaluation",
    "SchemeSavings",
    "TotalPowerAnalysis",
    "analyse_leakage",
    "analyse_minimum_idle_time",
    "analyse_total_power",
    "evaluate_scheme",
    "format_evaluation",
    "format_table1",
    "savings_versus_baseline",
]

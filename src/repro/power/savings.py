"""Savings bookkeeping: every Table 1 row for one scheme, relative to SC.

:func:`evaluate_scheme` gathers delay, leakage, total power and
break-even figures for a single scheme; :func:`savings_versus_baseline`
turns two such evaluations into the percentages the paper prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crossbar.base import CrossbarScheme
from ..errors import PowerError
from ..timing.delay_analysis import DelayReport
from .dynamic_analysis import analyse_dynamic
from .idle_time import IdleTimeAnalysis, analyse_minimum_idle_time
from .leakage_analysis import LeakageAnalysis, analyse_leakage
from .total_power import TotalPowerAnalysis, _combine_total_power

__all__ = ["SchemeEvaluation", "SchemeSavings", "evaluate_scheme", "savings_versus_baseline"]


@dataclass(frozen=True)
class SchemeEvaluation:
    """All raw figures for one scheme at one operating point."""

    scheme: str
    delay: DelayReport
    leakage: LeakageAnalysis
    total_power: TotalPowerAnalysis
    idle_time: IdleTimeAnalysis


@dataclass(frozen=True)
class SchemeSavings:
    """Table 1 percentages for one scheme relative to the SC baseline."""

    scheme: str
    active_leakage_saving: float
    standby_leakage_saving: float
    total_power_saving: float
    delay_penalty: float
    minimum_idle_cycles: int


def evaluate_scheme(
    scheme: CrossbarScheme,
    static_probability: float = 0.5,
    toggle_activity: float = 0.5,
    frequency: float | None = None,
) -> SchemeEvaluation:
    """Collect every Table 1 quantity for ``scheme``."""
    leakage = analyse_leakage(scheme, static_probability)
    return SchemeEvaluation(
        scheme=scheme.name,
        delay=scheme.delay_report(),
        leakage=leakage,
        total_power=_combine_total_power(
            analyse_dynamic(scheme, toggle_activity, static_probability, frequency), leakage
        ),
        idle_time=analyse_minimum_idle_time(scheme, static_probability, frequency),
    )


def savings_versus_baseline(evaluation: SchemeEvaluation,
                            baseline: SchemeEvaluation) -> SchemeSavings:
    """Express ``evaluation`` relative to ``baseline`` (normally the SC scheme)."""
    if baseline.leakage.active_power <= 0 or baseline.leakage.standby_power <= 0:
        raise PowerError("baseline leakage must be positive to compute savings")
    return SchemeSavings(
        scheme=evaluation.scheme,
        active_leakage_saving=evaluation.leakage.active_saving_versus(baseline.leakage),
        standby_leakage_saving=evaluation.leakage.standby_saving_versus(baseline.leakage),
        total_power_saving=evaluation.total_power.saving_versus(baseline.total_power),
        delay_penalty=evaluation.delay.penalty_versus(baseline.delay),
        minimum_idle_cycles=evaluation.idle_time.minimum_idle_cycles,
    )

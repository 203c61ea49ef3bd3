"""Savings bookkeeping: every Table 1 row for one scheme, relative to SC.

:func:`scheme_figures` validates one operating point and computes a
scheme's figures from its record terms (:mod:`repro.crossbar.base`
holds the one formula set); the engine's record path
(:func:`repro.core.scheme_evaluator.evaluate_scheme`) and
:func:`evaluate_scheme` both call it, so the validation order exists
once.  :func:`evaluate_scheme` wraps the figures in the analysis
objects (leakage, total power, break-even) and
:func:`savings_versus_baseline` turns two such evaluations into the
percentages the paper prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuit.dynamic import check_frequency
from ..crossbar.base import CrossbarScheme, SchemeFigures
from ..errors import PowerError
from ..timing.delay_analysis import DelayReport
from .idle_time import IdleTimeAnalysis
from .leakage_analysis import LeakageAnalysis, analyse_leakage
from .total_power import TotalPowerAnalysis

__all__ = ["SchemeEvaluation", "SchemeSavings", "analyse_total_power", "check_toggle_activity",
           "evaluate_scheme", "savings_versus_baseline", "scheme_figures"]


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


def check_toggle_activity(toggle_activity: float) -> None:
    """The toggle-activity check of :func:`scheme_figures`, also made for
    a point the record plan serves from its slot."""
    if not 0.0 <= toggle_activity <= 1.0:
        raise PowerError(f"toggle_activity must be in [0, 1], got {toggle_activity}")


def scheme_figures(scheme: CrossbarScheme, static_probability: float,
                   toggle_activity: float, frequency: float) -> SchemeFigures:
    """Every Table 1 figure of ``scheme`` at one point, computed once from
    its record terms (derived on first use and cached on the scheme),
    validated in this order: static probability, the terms themselves,
    toggle activity, clock, standby mode."""
    p = static_probability
    if not 0.0 <= p <= 1.0:
        raise PowerError(f"static probability must be in [0, 1], got {p}")
    terms = scheme.record_terms
    check_toggle_activity(toggle_activity)
    check_frequency(frequency)
    if not scheme.has_sleep_mode:
        raise PowerError(f"scheme {scheme.name!r} has no standby mode")
    return scheme.figures_from_record_terms(terms, p, toggle_activity, frequency)


def evaluate_scheme(
    scheme: CrossbarScheme,
    static_probability: float = 0.5,
    toggle_activity: float = 0.5,
    frequency: float | None = None,
) -> SchemeEvaluation:
    """Collect every Table 1 quantity for ``scheme``; ``frequency``
    defaults to the scheme's library clock.

    The total-power and break-even analyses carry the figures of
    :func:`scheme_figures`; the leakage analysis keeps the mechanism
    breakdowns and computes its powers from them."""
    clock = frequency if frequency is not None else scheme.library.clock_frequency
    figures = scheme_figures(scheme, static_probability, toggle_activity, clock)
    return SchemeEvaluation(
        scheme=scheme.name,
        delay=figures.delay,
        leakage=analyse_leakage(scheme, static_probability),
        total_power=TotalPowerAnalysis(
            scheme=scheme.name,
            frequency=clock,
            toggle_activity=toggle_activity,
            static_probability=static_probability,
            dynamic_power=figures.dynamic_power,
            leakage_power=figures.active_power,
        ),
        idle_time=IdleTimeAnalysis(
            scheme=scheme.name,
            clock_frequency=clock,
            transition_energy=figures.transition_energy,
            power_saved_in_standby=figures.power_saved_in_standby,
        ),
    )


def analyse_total_power(
    scheme: CrossbarScheme,
    toggle_activity: float = 0.5,
    static_probability: float = 0.5,
    frequency: float | None = None,
) -> TotalPowerAnalysis:
    """Switching + active leakage power of ``scheme`` (the total-power
    analysis of :func:`evaluate_scheme`, so validated alike)."""
    return evaluate_scheme(scheme, static_probability, toggle_activity, frequency).total_power


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

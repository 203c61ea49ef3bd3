"""The Table 1 comparison engine.

Evaluates every scheme under one experiment configuration and assembles
the paper's Table 1: delays, savings relative to SC, minimum idle times
and total power, plus a rendered text table and a machine-readable dict
the benchmarks assert against.

Two entry points produce the same records:

* :func:`compare_schemes` builds the object API — a
  :class:`SchemeComparison` of per-scheme evaluations and savings, with
  the rendered table — and is the reference the record path is tested
  against;
* :func:`point_records` is the engine's record path: it reads every
  Table 1 figure straight off each built scheme's activity profile and
  writes the record dicts directly, bit-identical to
  ``compare_schemes(...).as_records()`` without the intermediate
  analysis objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError, PowerError
from ..power.idle_time import minimum_idle_cycles
from ..power.report import format_table1
from ..power.savings import SchemeEvaluation, SchemeSavings, savings_versus_baseline
from ..units import seconds_to_picoseconds, watts_to_milliwatts
from . import scheme_evaluator
from .config import ExperimentConfig
from .scheme_evaluator import SchemeEvaluator, SchemeFigures, SchemeResult, checked_names

__all__ = ["SchemeComparison", "compare_schemes", "point_records"]


@dataclass
class SchemeComparison:
    """All schemes evaluated under one configuration, relative to a baseline."""

    baseline_name: str
    results: dict[str, SchemeResult] = field(default_factory=dict)
    savings: dict[str, SchemeSavings] = field(default_factory=dict)

    @property
    def scheme_names(self) -> list[str]:
        """Scheme names in evaluation order (Table 1 order)."""
        return list(self.results)

    def evaluation(self, name: str) -> SchemeEvaluation:
        """Raw evaluation of one scheme."""
        try:
            return self.results[name].evaluation
        except KeyError as exc:
            raise ConfigurationError(f"scheme {name!r} was not part of this comparison") from exc

    def saving(self, name: str) -> SchemeSavings:
        """Savings of one non-baseline scheme relative to the baseline."""
        try:
            return self.savings[name]
        except KeyError as exc:
            raise ConfigurationError(
                f"scheme {name!r} has no savings entry (is it the baseline?)"
            ) from exc

    def as_table_text(self) -> str:
        """Render the comparison in the layout of the paper's Table 1."""
        evaluations = {name: result.evaluation for name, result in self.results.items()}
        return format_table1(evaluations, self.savings, baseline_name=self.baseline_name)

    def as_records(self) -> list[dict[str, float | str]]:
        """One flat record per scheme — what the benchmark harness prints."""
        records: list[dict[str, float | str]] = []
        for name, result in self.results.items():
            evaluation = result.evaluation
            saving = self.savings.get(name)
            records.append(
                {
                    "scheme": name,
                    "high_to_low_ps": seconds_to_picoseconds(evaluation.delay.high_to_low),
                    "low_to_high_ps": seconds_to_picoseconds(evaluation.delay.low_to_high),
                    "active_leakage_mw": watts_to_milliwatts(evaluation.leakage.active_power),
                    "standby_leakage_mw": watts_to_milliwatts(evaluation.leakage.standby_power),
                    "active_leakage_saving_percent": (
                        saving.active_leakage_saving * 100.0 if saving else 0.0
                    ),
                    "standby_leakage_saving_percent": (
                        saving.standby_leakage_saving * 100.0 if saving else 0.0
                    ),
                    "minimum_idle_cycles": evaluation.idle_time.minimum_idle_cycles,
                    "total_power_mw": watts_to_milliwatts(evaluation.total_power.total),
                    "delay_penalty_percent": (
                        saving.delay_penalty * 100.0 if saving else 0.0
                    ),
                    "high_vt_device_fraction": result.high_vt_device_fraction,
                }
            )
        return records


def compare_schemes(
    config: ExperimentConfig | None = None,
    scheme_names: list[str] | None = None,
    baseline_name: str = "SC",
) -> SchemeComparison:
    """Evaluate ``scheme_names`` (default: all) and compare against ``baseline_name``."""
    evaluator = SchemeEvaluator(config)
    names = checked_names(scheme_names, baseline_name)
    comparison = SchemeComparison(baseline_name=baseline_name)
    for name in names:
        comparison.results[name] = evaluator.evaluate(name)
    baseline = comparison.results[baseline_name].evaluation
    for name in names:
        if name == baseline_name:
            continue
        comparison.savings[name] = savings_versus_baseline(
            comparison.results[name].evaluation, baseline
        )
    return comparison


def _idle_cycles(figures: SchemeFigures, clock: float) -> int:
    return minimum_idle_cycles(figures.scheme.name, figures.transition_energy,
                               figures.power_saved_in_standby, clock)


def point_records(
    config: ExperimentConfig | None = None,
    scheme_names: list[str] | None = None,
    baseline_name: str = "SC",
) -> list[dict[str, float | str]]:
    """``compare_schemes(config, scheme_names, baseline_name).as_records()``,
    computed straight from each scheme's activity profile.

    Schemes come from the structural cache exactly as for
    :func:`compare_schemes`, through one :func:`schemes_for
    <repro.core.scheme_evaluator.schemes_for>` lookup per point; each
    Table 1 figure is then computed once per scheme from its record
    terms and written into the record dict, with no evaluation, savings
    or comparison objects in between.  The contract is exact: the same
    keys in the same order, bit-identical floats, and the same
    validation — an invalid point raises the same exception (type and
    message) for the same first failing scheme.
    """
    if config is None:
        config = ExperimentConfig()
    clock = config.clock_frequency
    # Looked up on the module per call, so a wrapper installed there
    # (perfbench's tracer times each scheme this way) sees every scheme.
    evaluate = scheme_evaluator.evaluate_scheme
    figures: dict[str, SchemeFigures] = {}
    for name, scheme in scheme_evaluator.schemes_for(config, scheme_names, baseline_name):
        figures[name] = evaluate(scheme, config)

    # Savings of every non-baseline scheme first, then the records: the
    # order in which compare_schemes raises.
    baseline = figures[baseline_name]
    savings: dict[str, tuple[float, float, float, int]] = {}
    for name, scheme_figures in figures.items():
        if name == baseline_name:
            continue
        if baseline.active_power <= 0 or baseline.standby_power <= 0:
            raise PowerError("baseline leakage must be positive to compute savings")
        if baseline.total_power <= 0:
            raise PowerError("baseline total power must be positive")
        savings[name] = (
            (1.0 - scheme_figures.active_power / baseline.active_power) * 100.0,
            (1.0 - scheme_figures.standby_power / baseline.standby_power) * 100.0,
            scheme_figures.delay.penalty_versus(baseline.delay) * 100.0,
            _idle_cycles(scheme_figures, clock),
        )

    records: list[dict[str, float | str]] = []
    for name, scheme_figures in figures.items():
        saving = savings.get(name)
        if saving is None:
            active_saving = standby_saving = delay_penalty = 0.0
            idle_cycles = _idle_cycles(scheme_figures, clock)
        else:
            active_saving, standby_saving, delay_penalty, idle_cycles = saving
        delay = scheme_figures.delay
        records.append(
            {
                "scheme": name,
                "high_to_low_ps": seconds_to_picoseconds(delay.high_to_low),
                "low_to_high_ps": seconds_to_picoseconds(delay.low_to_high),
                "active_leakage_mw": watts_to_milliwatts(scheme_figures.active_power),
                "standby_leakage_mw": watts_to_milliwatts(scheme_figures.standby_power),
                "active_leakage_saving_percent": active_saving,
                "standby_leakage_saving_percent": standby_saving,
                "minimum_idle_cycles": idle_cycles,
                "total_power_mw": watts_to_milliwatts(scheme_figures.total_power),
                "delay_penalty_percent": delay_penalty,
                "high_vt_device_fraction": scheme_figures.scheme.high_vt_device_fraction,
            }
        )
    return records

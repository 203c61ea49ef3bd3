"""The Table 1 comparison engine.

Evaluates every scheme under one experiment configuration and assembles
the paper's Table 1: delays, savings relative to SC, minimum idle times
and total power, plus a rendered text table and a machine-readable dict
the benchmarks assert against.

Two entry points produce the same records:

* :func:`compare_schemes` builds the object API — a
  :class:`SchemeComparison` of per-scheme evaluations and savings, with
  the rendered table;
* :func:`point_records` is the engine's record path: it reuses what the
  structure's record plan holds (the structure constants and the
  leakage of the last static probability) and writes the record dicts
  directly, bit-identical to ``compare_schemes(...).as_records()``
  without the intermediate analysis objects.

Both take each scheme's figures from one function,
:func:`~repro.power.savings.scheme_figures`, over the scheme's record
terms: one formula set.  What differs, and so what their exact parity
(``tests/test_point_records.py``) still checks, is the rest:
:func:`compare_schemes` builds no structure memo or record plan, takes
the leakage powers of its records from the
:class:`~repro.power.LeakageAnalysis` breakdowns, and computes savings,
delay penalties and minimum idle cycles through the analysis objects.
``tests/golden/comparison_records.json`` pins both to the records of
the earlier, separately derived object API.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from math import copysign

from ..crossbar.base import CrossbarScheme, record_dynamic_energy
from ..errors import ConfigurationError, PowerError
from ..power.idle_time import minimum_idle_cycles
from ..power.report import format_table1
from ..power.savings import (
    SchemeEvaluation,
    SchemeSavings,
    check_toggle_activity,
    savings_versus_baseline,
)
from ..units import seconds_to_picoseconds, watts_to_milliwatts
from . import scheme_evaluator
from .config import ExperimentConfig
from .scheme_evaluator import (
    RecordPlan,
    SchemeEvaluator,
    SchemeFigures,
    SchemeResult,
    checked_names,
)

__all__ = ["RECORD_LAYOUT", "SchemeComparison", "compare_schemes", "point_records"]


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
    computed straight from each scheme's record terms.

    Schemes come from the structural cache exactly as for
    :func:`compare_schemes`, through one :func:`structure_for
    <repro.core.scheme_evaluator.structure_for>` lookup per point, with
    the structure's :class:`~repro.core.scheme_evaluator.RecordPlan`.
    A point whose static probability is the plan's slot's (the same
    float bits, so ``0.0`` and ``-0.0`` differ) and whose baseline is
    the slot's reads every figure but the total power from the slot and
    computes only the dynamic power
    (:func:`~repro.crossbar.base.record_dynamic_energy` times the
    clock).  Any other
    point evaluates each scheme (:func:`evaluate_scheme
    <repro.core.scheme_evaluator.evaluate_scheme>`, once per scheme in
    order), then refills the slot and, for a new baseline, the plan's
    constants.  The contract is exact: the same keys in the same order,
    bit-identical floats, and the same validation — an invalid point
    raises the same exception (type and message) for the same first
    failing scheme.
    """
    if config is None:
        config = ExperimentConfig()
    p = config.static_probability
    pairs, plan = scheme_evaluator.structure_for(config, scheme_names, baseline_name)
    slot_probability, slot_baseline, baseline_index, rows = plan.slot
    if (p == slot_probability and baseline_name == slot_baseline
            and (p or copysign(1.0, p) == copysign(1.0, slot_probability))):
        # Every check but these two passed when the slot was filled.
        toggle, clock = config.toggle_activity, config.clock_frequency
        check_toggle_activity(toggle)
        totals = [record_dynamic_energy(row[1], p, toggle) * clock + row[6] for row in rows]
        if len(rows) > 1:
            _check_baseline_total(totals[baseline_index])
        return _write_records(rows, totals)
    return _fill_slot(config, pairs, plan, baseline_name)


def _fill_slot(config: ExperimentConfig, pairs: Iterable[tuple[str, CrossbarScheme]],
               plan: RecordPlan, baseline_name: str) -> list[dict[str, float | str]]:
    """A point that misses the slot: evaluate every scheme, check and
    compute the savings in :func:`compare_schemes` order, then write the
    records and make this point's static probability the slot's."""
    clock = config.clock_frequency
    # Looked up on the module per call, so a wrapper installed there
    # (perfbench's tracer times each scheme this way) sees every scheme.
    evaluate = scheme_evaluator.evaluate_scheme
    figures: dict[str, SchemeFigures] = {}
    for name, scheme in pairs:
        figures[name] = evaluate(scheme, config)
    baseline = figures[baseline_name]
    constants = plan.constants
    if constants[0] != baseline_name:
        constants = plan.constants = _plan_constants(figures, baseline_name)

    # Savings of every non-baseline scheme first, then the baseline's
    # idle cycles: the order in which compare_schemes raises.
    savings: dict[str, tuple[float, float, int]] = {}
    for name, scheme_figures in figures.items():
        if name == baseline_name:
            continue
        if baseline.active_power <= 0 or baseline.standby_power <= 0:
            raise PowerError("baseline leakage must be positive to compute savings")
        _check_baseline_total(baseline.total_power)
        savings[name] = (
            (1.0 - scheme_figures.active_power / baseline.active_power) * 100.0,
            (1.0 - scheme_figures.standby_power / baseline.standby_power) * 100.0,
            _idle_cycles(scheme_figures, clock),
        )
    savings[baseline_name] = (0.0, 0.0, _idle_cycles(baseline, clock))

    rows = tuple(
        (*row, scheme_figures.active_power, watts_to_milliwatts(scheme_figures.active_power),
         watts_to_milliwatts(scheme_figures.standby_power), *savings[row[0]])
        for row, scheme_figures in zip(constants[2], figures.values()))
    records = _write_records(rows, [scheme_figures.total_power
                                    for scheme_figures in figures.values()])
    plan.slot = (config.static_probability, baseline_name, constants[1], rows)
    return records


def _check_baseline_total(total_power: float) -> None:
    if total_power <= 0:
        raise PowerError("baseline total power must be positive")


def _plan_constants(figures: dict[str, SchemeFigures], baseline_name: str) -> tuple:
    """A :class:`~repro.core.scheme_evaluator.RecordPlan`'s constants for
    the schemes of ``figures`` against ``baseline_name``."""
    baseline_delay = figures[baseline_name].delay
    rows = tuple(
        (name, scheme_figures.scheme.record_terms,
         seconds_to_picoseconds(scheme_figures.delay.high_to_low),
         seconds_to_picoseconds(scheme_figures.delay.low_to_high),
         0.0 if name == baseline_name
         else scheme_figures.delay.penalty_versus(baseline_delay) * 100.0,
         scheme_figures.scheme.high_vt_device_fraction)
        for name, scheme_figures in figures.items())
    return baseline_name, list(figures).index(baseline_name), rows


#: A comparison record's layout: every key of :func:`_write_records`
#: (and of :meth:`SchemeComparison.as_records`) in record order, with the
#: exact type of its value.  The fleet wire
#: (:mod:`repro.engine.distributed`) is built from it: the ``float``
#: fields travel as packed doubles, the ``int`` field as a JSON int, and
#: the scheme name is implied by the item's scheme list.
RECORD_LAYOUT: tuple[tuple[str, type], ...] = (
    ("scheme", str),
    ("high_to_low_ps", float),
    ("low_to_high_ps", float),
    ("active_leakage_mw", float),
    ("standby_leakage_mw", float),
    ("active_leakage_saving_percent", float),
    ("standby_leakage_saving_percent", float),
    ("minimum_idle_cycles", int),
    ("total_power_mw", float),
    ("delay_penalty_percent", float),
    ("high_vt_device_fraction", float),
)


def _write_records(rows: tuple, totals: list[float]) -> list[dict[str, float | str]]:
    """The records of a plan's slot ``rows`` with each scheme's total
    power in watts, in :data:`RECORD_LAYOUT`."""
    return [
        {
            "scheme": name,
            "high_to_low_ps": high_to_low,
            "low_to_high_ps": low_to_high,
            "active_leakage_mw": active_mw,
            "standby_leakage_mw": standby_mw,
            "active_leakage_saving_percent": active_saving,
            "standby_leakage_saving_percent": standby_saving,
            "minimum_idle_cycles": idle_cycles,
            "total_power_mw": watts_to_milliwatts(total),
            "delay_penalty_percent": delay_penalty,
            "high_vt_device_fraction": high_vt_fraction,
        }
        for (name, _, high_to_low, low_to_high, delay_penalty, high_vt_fraction, _,
             active_mw, standby_mw, active_saving, standby_saving, idle_cycles), total
        in zip(rows, totals)
    ]

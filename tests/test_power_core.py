"""Tests for the power analyses (Table 1 quantities) and the core
evaluation / comparison / design-space layer."""

from __future__ import annotations

import pytest

from repro.analysis import describe_output_path, describe_segmentation, render_table
from repro.analysis.sweep import SweepSeries, crossover_points, run_sweep
from repro.core import (
    ExperimentConfig,
    SchemeEvaluator,
    compare_schemes,
    paper_experiment,
)
from repro.engine import Evaluator
from repro.errors import ConfigurationError, PowerError, ReproError
from repro.power import (
    analyse_leakage,
    analyse_minimum_idle_time,
    analyse_total_power,
    evaluate_scheme,
    format_evaluation,
    format_table1,
    savings_versus_baseline,
)


@pytest.fixture(scope="module")
def comparison():
    """Full Table 1 comparison at the paper's configuration (computed once)."""
    return compare_schemes(paper_experiment())


class TestLeakageAnalysis:
    def test_savings_relative_to_baseline(self, schemes):
        baseline = analyse_leakage(schemes["SC"])
        dpc = analyse_leakage(schemes["DPC"])
        assert 0.0 < dpc.active_saving_versus(baseline) < 1.0
        assert 0.0 < dpc.standby_saving_versus(baseline) < 1.0

    def test_powers_are_consistent_with_breakdowns(self, schemes):
        analysis = analyse_leakage(schemes["SC"])
        assert analysis.active_power == pytest.approx(
            analysis.active.total * analysis.supply_voltage
        )

    def test_invalid_probability_rejected(self, schemes):
        with pytest.raises(PowerError):
            analyse_leakage(schemes["SC"], static_probability=2.0)


class TestDynamicAndTotalPower:
    def test_dynamic_power_is_energy_times_frequency(self, schemes):
        analysis = analyse_total_power(schemes["SC"])
        energy = schemes["SC"].dynamic_energy_per_cycle()
        assert analysis.dynamic_power == energy * analysis.frequency
        assert analysis.dynamic_power == schemes["SC"].dynamic_power()

    def test_total_power_components(self, schemes):
        total = analyse_total_power(schemes["DFC"])
        assert total.total == pytest.approx(total.dynamic_power + total.leakage_power)

    def test_total_power_saving_versus_baseline(self, schemes):
        baseline = analyse_total_power(schemes["SC"])
        sdfc = analyse_total_power(schemes["SDFC"])
        assert sdfc.saving_versus(baseline) > 0

    def test_static_probability_sweep_shows_precharge_sensitivity(self, schemes):
        totals = [analyse_total_power(schemes["DPC"], static_probability=probability).total
                  for probability in (0.1, 0.5, 0.9)]
        assert totals[1] > totals[2]  # 50 % worse than mostly-ones
        assert totals[0] > totals[2]  # mostly-zeros worst for a pre-charge-high design

    def test_invalid_activity_rejected(self, schemes):
        with pytest.raises(PowerError, match="toggle_activity must be in"):
            analyse_total_power(schemes["SC"], toggle_activity=1.5)


class TestMinimumIdleTime:
    def test_minimum_idle_cycles_are_small_integers(self, schemes):
        for name, scheme in schemes.items():
            analysis = analyse_minimum_idle_time(scheme)
            assert 1 <= analysis.minimum_idle_cycles <= 10, name

    def test_break_even_consistent_with_components(self, schemes):
        analysis = analyse_minimum_idle_time(schemes["DFC"])
        assert analysis.break_even_cycles == pytest.approx(
            analysis.transition_energy / (analysis.power_saved_in_standby * analysis.clock_period)
        )

    def test_minimum_idle_time_seconds(self, schemes):
        analysis = analyse_minimum_idle_time(schemes["SC"])
        assert analysis.minimum_idle_cycles * analysis.clock_period == pytest.approx(
            analysis.minimum_idle_cycles / 3e9
        )

    def test_faster_clock_needs_more_cycles(self, schemes):
        slow = analyse_minimum_idle_time(schemes["DFC"], frequency=1e9)
        fast = analyse_minimum_idle_time(schemes["DFC"], frequency=6e9)
        assert fast.minimum_idle_cycles >= slow.minimum_idle_cycles


class TestEvaluationAndSavings:
    def test_evaluate_scheme_gathers_all_rows(self, schemes):
        evaluation = evaluate_scheme(schemes["DPC"])
        assert evaluation.scheme == "DPC"
        assert evaluation.delay.high_to_low > 0
        assert evaluation.leakage.active_power > 0
        assert evaluation.total_power.total > 0
        assert evaluation.idle_time.minimum_idle_cycles >= 1

    def test_savings_versus_baseline_signs(self, schemes):
        baseline = evaluate_scheme(schemes["SC"])
        dpc = savings_versus_baseline(evaluate_scheme(schemes["DPC"]), baseline)
        assert dpc.active_leakage_saving > 0
        assert dpc.standby_leakage_saving > 0
        assert dpc.delay_penalty == 0.0

    def test_report_formatting_contains_all_schemes(self, schemes):
        evaluations = {name: evaluate_scheme(scheme) for name, scheme in schemes.items()}
        baseline = evaluations["SC"]
        savings = {
            name: savings_versus_baseline(evaluation, baseline)
            for name, evaluation in evaluations.items()
            if name != "SC"
        }
        text = format_table1(evaluations, savings)
        for name in schemes:
            assert name in text
        assert "Minimum Idle Time" in text

    def test_single_evaluation_formatting(self, schemes):
        text = format_evaluation(evaluate_scheme(schemes["DFC"]))
        assert "DFC" in text and "mW" in text


class TestExperimentConfig:
    def test_paper_experiment_defaults(self):
        config = paper_experiment()
        assert config.technology_node == "45nm"
        assert config.clock_frequency == pytest.approx(3e9)
        assert config.static_probability == 0.5
        assert config.crossbar.flit_width == 128

    def test_build_library_uses_config(self):
        config = ExperimentConfig(temperature_celsius=25.0, clock_frequency=2e9)
        library = config.build_library()
        assert library.clock_frequency == pytest.approx(2e9)
        assert library.temperature_kelvin == pytest.approx(298.15)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(static_probability=1.5)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(clock_frequency=0.0)

    def test_with_overrides(self):
        config = paper_experiment().with_overrides(corner="FF")
        assert config.corner == "FF"


class TestSchemeEvaluatorAndComparison:
    def test_evaluator_produces_inventory(self):
        evaluator = SchemeEvaluator()
        result = evaluator.evaluate("DFC")
        assert result.scheme_name == "DFC"
        assert 0.0 < result.high_vt_device_fraction < 1.0

    def test_comparison_contains_all_schemes_in_order(self, comparison):
        assert comparison.scheme_names == ["SC", "DFC", "DPC", "SDFC", "SDPC"]

    def test_comparison_baseline_has_no_savings_entry(self, comparison):
        with pytest.raises(ConfigurationError):
            comparison.saving("SC")

    def test_comparison_records_have_expected_keys(self, comparison):
        record = comparison.as_records()[0]
        for key in ("scheme", "high_to_low_ps", "active_leakage_saving_percent",
                    "total_power_mw", "minimum_idle_cycles"):
            assert key in record

    def test_comparison_table_text_renders(self, comparison):
        text = comparison.as_table_text()
        assert "SDPC" in text and "Delay Penalty" in text

    def test_unknown_scheme_lookup_raises(self, comparison):
        with pytest.raises(ConfigurationError):
            comparison.evaluation("XYZ")

    def test_comparison_requires_baseline_in_scheme_list(self):
        with pytest.raises(ConfigurationError):
            compare_schemes(scheme_names=["DFC", "DPC"], baseline_name="SC")

    def test_subset_comparison(self):
        comparison = compare_schemes(scheme_names=["SC", "DPC"])
        assert comparison.scheme_names == ["SC", "DPC"]
        assert comparison.saving("DPC").active_leakage_saving > 0


class TestDesignSpace:
    def test_temperature_sweep_changes_leakage_not_ordering(self):
        results = Evaluator(scheme_names=["SC", "SDPC"]).evaluate_grid(
            {"temperature_celsius": [25.0, 110.0]})
        series = results.series("SDPC", "active_leakage_saving_percent")
        assert [temperature for temperature, _ in series] == [25.0, 110.0]
        for _, saving in series:
            assert saving > 0

    def test_sweep_rejects_unknown_parameter(self):
        with pytest.raises(ConfigurationError):
            Evaluator().evaluate_grid({"oxide_thickness": [1, 2]})

    def test_sweep_rejects_empty_values(self):
        with pytest.raises(ConfigurationError):
            Evaluator().evaluate_grid({"corner": []})

    def test_series_unknown_metric_rejected(self):
        results = Evaluator(scheme_names=["SC", "DPC"]).evaluate_grid(
            {"static_probability": [0.5]})
        with pytest.raises(ConfigurationError, match="bogus_metric"):
            results.series("DPC", "bogus_metric")


class TestAnalysisHelpers:
    def test_render_table_alignment_and_values(self):
        text = render_table(["scheme", "value"], [["SC", 1.23456], ["DPC", 7]])
        assert "scheme" in text and "1.235" in text and "DPC" in text

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ReproError):
            render_table(["a", "b"], [["only-one"]])

    def test_run_sweep_and_crossover(self):
        rising = run_sweep("rising", [0, 1, 2, 3], lambda x: float(x))
        falling = run_sweep("falling", [0, 1, 2, 3], lambda x: 3.0 - x)
        assert crossover_points(rising, falling) == pytest.approx((1.5,))

    def test_crossover_none_when_no_intersection(self):
        a = SweepSeries("a", (0.0, 1.0), (5.0, 6.0))
        b = SweepSeries("b", (0.0, 1.0), (1.0, 2.0))
        assert crossover_points(a, b) == ()

    def test_crossover_requires_same_grid(self):
        a = SweepSeries("a", (0.0, 1.0), (5.0, 6.0))
        b = SweepSeries("b", (0.0, 2.0), (1.0, 2.0))
        with pytest.raises(ReproError):
            crossover_points(a, b)

    def test_describe_output_path_matches_scheme_features(self, schemes):
        structure = describe_output_path(schemes["DPC"])
        assert structure.has_precharge and not structure.has_keeper
        assert structure.high_vt_count > 0
        assert "precharge" in structure.high_vt_roles

    def test_describe_segmentation_reports_path_asymmetry(self, schemes):
        structure = describe_segmentation(schemes["SDFC"])
        assert structure.far_path_delay > structure.near_path_delay
        assert 0.0 < structure.near_path_slack_fraction < 1.0

    def test_describe_segmentation_rejects_flat_scheme(self, schemes):
        with pytest.raises(ReproError):
            describe_segmentation(schemes["SC"])

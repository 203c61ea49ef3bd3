"""Tests for the timing substrate: stage delays, contention, slack and
dual-Vt assignment."""

from __future__ import annotations

import pytest

from repro.errors import TimingError
from repro.interconnect import PiModel
from repro.timing import (
    DelayReport,
    SlackReport,
    VtCandidate,
    assign_high_vt,
    contention_factor,
    pass_rise_penalty,
    required_time_from_clock,
    stage_delay,
)


class TestStageDelay:
    def test_delay_without_wire_is_rc(self):
        delay = stage_delay("s", driver_resistance=1000.0, load_capacitance=10e-15)
        assert delay == pytest.approx(0.693 * 1000.0 * 10e-15, rel=1e-3)

    def test_series_resistance_adds_to_driver(self):
        base = stage_delay("s", 1000.0, 10e-15)
        with_pass = stage_delay("s", 1000.0, 10e-15, series_resistance=500.0)
        assert with_pass == pytest.approx(1.5 * base)

    def test_contention_inflates_delay(self):
        quiet = stage_delay("s", 1000.0, 10e-15)
        fighting = stage_delay("s", 1000.0, 10e-15, contention_factor=1.5)
        assert fighting == pytest.approx(1.5 * quiet)

    def test_wire_adds_delay(self):
        bare = stage_delay("s", 1000.0, 10e-15)
        wired = stage_delay("s", 1000.0, 10e-15, wire=PiModel(10e-15, 500.0, 10e-15).floats())
        assert wired > bare

    def test_wire_delay_is_the_pi_models(self):
        pi = PiModel(10e-15, 500.0, 10e-15)
        assert stage_delay("s", 1000.0, 10e-15, wire=pi.floats(), series_resistance=200.0) \
            == PiModel.driver_stage_delay_of_floats(pi.floats(), 1200.0, 10e-15)

    def test_invalid_contention_rejected(self):
        with pytest.raises(TimingError, match="contention factor is a delay inflation"):
            stage_delay("s", 1000.0, 10e-15, contention_factor=0.5)

    @pytest.mark.parametrize("field, arguments", [
        ("driver resistance", (-1.0, 10e-15)),
        ("load capacitance", (1000.0, -1e-15)),
        ("series resistance", (1000.0, 10e-15, None, -1.0)),
    ])
    def test_negative_values_rejected(self, field, arguments):
        with pytest.raises(TimingError, match=f"stage 's': {field} cannot be negative"):
            stage_delay("s", *arguments)


class TestContentionAndRisePenalty:
    def test_contention_factor_increases_with_keeper_strength(self):
        weak = contention_factor(1e-3, 0.1e-3)
        strong = contention_factor(1e-3, 0.5e-3)
        assert strong > weak > 1.0

    def test_contention_factor_without_keeper_is_one(self):
        assert contention_factor(1e-3, 0.0) == 1.0

    def test_overstrong_keeper_rejected(self):
        with pytest.raises(TimingError):
            contention_factor(1e-3, 0.9e-3)

    def test_pass_rise_penalty_above_one(self):
        assert pass_rise_penalty(1.0, 0.22) > 1.0

    def test_pass_rise_penalty_grows_with_threshold(self):
        assert pass_rise_penalty(1.0, 0.37) > pass_rise_penalty(1.0, 0.22)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(TimingError):
            pass_rise_penalty(1.0, 1.2)


class TestDelayReport:
    def test_worst_case_and_penalty(self):
        baseline = DelayReport("SC", 61.4e-12, 54.9e-12)
        slower = DelayReport("SDFC", 62.8e-12, 64.3e-12)
        faster = DelayReport("DFC", 51.9e-12, 58.2e-12)
        assert baseline.worst_case == pytest.approx(61.4e-12)
        assert slower.penalty_versus(baseline) == pytest.approx(64.3 / 61.4 - 1, rel=1e-3)
        assert faster.penalty_versus(baseline) == 0.0

    def test_non_positive_delay_rejected(self):
        with pytest.raises(TimingError):
            DelayReport("bad", 0.0, 1e-12)


class TestSlack:
    def test_required_time_from_clock(self):
        assert required_time_from_clock(1 / 3e9, 0.25) == pytest.approx(83.3e-12, rel=1e-2)

    def test_slack_report(self):
        report = SlackReport("p", arrival_time=60e-12, required_time=80e-12)
        assert report.slack == pytest.approx(20e-12)
        assert report.is_met
        assert report.slack_fraction == pytest.approx(0.25)

    def test_negative_slack_detected(self):
        report = SlackReport("p", arrival_time=90e-12, required_time=80e-12)
        assert not report.is_met

    def test_invalid_utilisation_rejected(self):
        with pytest.raises(TimingError):
            required_time_from_clock(1e-9, 0.0)


class TestVtAssignment:
    def test_off_critical_candidates_always_selected(self):
        candidates = [
            VtCandidate("keeper", leakage_saving=1.0, delay_cost=0.0, on_critical_path=False),
            VtCandidate("driver", leakage_saving=5.0, delay_cost=10e-12, on_critical_path=True),
        ]
        result = assign_high_vt(candidates, slack_budget=0.0)
        assert "keeper" in result.selected_names
        assert "driver" not in result.selected_names

    def test_slack_budget_spent_greedily_by_efficiency(self):
        candidates = [
            VtCandidate("efficient", leakage_saving=10.0, delay_cost=1e-12),
            VtCandidate("inefficient", leakage_saving=1.0, delay_cost=1e-12),
        ]
        result = assign_high_vt(candidates, slack_budget=1e-12)
        assert result.selected_names == ["efficient"]
        assert result.rejected[0].name == "inefficient"

    def test_more_slack_selects_more_devices(self):
        candidates = [
            VtCandidate("a", 5.0, 2e-12),
            VtCandidate("b", 4.0, 2e-12),
            VtCandidate("c", 3.0, 2e-12),
        ]
        small = assign_high_vt(candidates, slack_budget=2e-12)
        large = assign_high_vt(candidates, slack_budget=6e-12)
        assert len(large.selected) > len(small.selected)
        assert large.total_leakage_saving > small.total_leakage_saving

    def test_slack_used_never_exceeds_budget(self):
        candidates = [VtCandidate("a", 5.0, 3e-12), VtCandidate("b", 4.0, 3e-12)]
        result = assign_high_vt(candidates, slack_budget=4e-12)
        assert result.slack_used <= result.slack_budget

    def test_zero_cost_candidates_always_fit(self):
        candidates = [VtCandidate("free", 1.0, 0.0)]
        result = assign_high_vt(candidates, slack_budget=0.0)
        assert result.selected_names == ["free"]

    def test_negative_budget_rejected(self):
        with pytest.raises(TimingError):
            assign_high_vt([], slack_budget=-1.0)

    def test_invalid_candidate_rejected(self):
        with pytest.raises(TimingError):
            VtCandidate("bad", leakage_saving=-1.0, delay_cost=0.0)

"""Integration tests: the paper's qualitative claims (Table 1 shape).

The reproduction uses analytical models rather than the authors' HSPICE
decks, so these tests assert the *shape* of Table 1 — orderings, signs
and broad ranges — rather than the exact percentages.  The exact measured
values are in ``PAPER_TABLE1`` (benchmarks/conftest.py) and printed by the
benchmarks.
"""

from __future__ import annotations

import pytest

from repro import compare_schemes, paper_experiment

SCHEMES = ["SC", "DFC", "DPC", "SDFC", "SDPC"]


@pytest.fixture(scope="module")
def comparison():
    return compare_schemes(paper_experiment())


@pytest.fixture(scope="module")
def records(comparison):
    return {record["scheme"]: record for record in comparison.as_records()}


class TestTable1DelayShape:
    def test_delays_are_tens_of_picoseconds(self, records):
        for name in SCHEMES:
            assert 20.0 < records[name]["high_to_low_ps"] < 150.0, name
            assert 20.0 < records[name]["low_to_high_ps"] < 150.0, name

    def test_dfc_improves_high_to_low_over_sc(self, records):
        assert records["DFC"]["high_to_low_ps"] < records["SC"]["high_to_low_ps"]

    def test_only_segmented_schemes_pay_delay_penalty(self, records):
        assert records["DFC"]["delay_penalty_percent"] == 0.0
        assert records["DPC"]["delay_penalty_percent"] == 0.0
        assert records["SDFC"]["delay_penalty_percent"] > 0.0

    def test_segmented_penalty_is_single_digit_percent(self, records):
        assert records["SDFC"]["delay_penalty_percent"] < 15.0
        assert records["SDPC"]["delay_penalty_percent"] < 10.0


class TestTable1LeakageShape:
    def test_active_savings_ordering_matches_paper(self, records):
        """Paper: DFC (10%) < DPC (44%) ~ SDFC (42%) < SDPC (64%)."""
        dfc = records["DFC"]["active_leakage_saving_percent"]
        dpc = records["DPC"]["active_leakage_saving_percent"]
        sdfc = records["SDFC"]["active_leakage_saving_percent"]
        sdpc = records["SDPC"]["active_leakage_saving_percent"]
        assert dfc < dpc
        assert dfc < sdfc
        assert sdpc == max(dfc, dpc, sdfc, sdpc)

    def test_active_savings_magnitudes(self, records):
        assert 3.0 < records["DFC"]["active_leakage_saving_percent"] < 20.0
        assert 25.0 < records["DPC"]["active_leakage_saving_percent"] < 60.0
        assert 30.0 < records["SDFC"]["active_leakage_saving_percent"] < 60.0
        assert 55.0 < records["SDPC"]["active_leakage_saving_percent"] < 85.0

    def test_standby_savings_ordering_matches_paper(self, records):
        """Paper: DFC (12%) < SDFC (44%) < DPC (94%) ~ SDPC (96%)."""
        dfc = records["DFC"]["standby_leakage_saving_percent"]
        sdfc = records["SDFC"]["standby_leakage_saving_percent"]
        dpc = records["DPC"]["standby_leakage_saving_percent"]
        sdpc = records["SDPC"]["standby_leakage_saving_percent"]
        assert dfc < sdfc < dpc
        assert dfc < sdfc < sdpc

    def test_precharged_standby_savings_above_80_percent(self, records):
        assert records["DPC"]["standby_leakage_saving_percent"] > 80.0
        assert records["SDPC"]["standby_leakage_saving_percent"] > 80.0

    def test_segmentation_improves_on_unsegmented_feedback_design(self, records):
        assert records["SDFC"]["active_leakage_saving_percent"] > \
            records["DFC"]["active_leakage_saving_percent"] + 10.0
        assert records["SDFC"]["standby_leakage_saving_percent"] > \
            records["DFC"]["standby_leakage_saving_percent"]


class TestTable1PowerShape:
    def test_total_power_is_tens_to_hundreds_of_milliwatts(self, records):
        for name in SCHEMES:
            assert 20.0 < records[name]["total_power_mw"] < 500.0, name

    def test_sc_has_highest_or_near_highest_total_power(self, records):
        sc = records["SC"]["total_power_mw"]
        for name in ("DFC", "SDFC", "SDPC"):
            assert records[name]["total_power_mw"] < sc, name
        # The pre-charged DPC pays a switching penalty at 50 % static
        # probability and lands within a few percent of SC (paper: 180 vs 183).
        assert records["DPC"]["total_power_mw"] < 1.10 * sc

    def test_sdfc_has_lowest_total_power(self, records):
        totals = {name: records[name]["total_power_mw"] for name in SCHEMES}
        assert min(totals, key=totals.get) == "SDFC"

    def test_minimum_idle_times_are_a_few_cycles(self, records):
        for name in SCHEMES:
            assert 1 <= records[name]["minimum_idle_cycles"] <= 8, name


class TestStructuralShape:
    def test_high_vt_fraction_grows_with_scheme_aggressiveness(self, records):
        assert records["SC"]["high_vt_device_fraction"] == 0.0
        assert records["DFC"]["high_vt_device_fraction"] > 0.0
        assert records["SDPC"]["high_vt_device_fraction"] > records["DFC"]["high_vt_device_fraction"]

    def test_comparison_table_text_mentions_every_row(self, comparison):
        text = comparison.as_table_text()
        for row in ("High to low delay", "Active Leakage Savings", "Standby Leakage Savings",
                    "Minimum Idle Time", "Total Power", "Delay Penalty"):
            assert row in text

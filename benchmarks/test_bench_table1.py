"""Benchmark: regenerate every row of the paper's Table 1.

Each test times the evaluation that produces one row group and prints
the measured values next to the paper's, in the paper's column order
(SC, DFC, DPC, SDFC, SDPC).
"""

from __future__ import annotations

from repro import compare_schemes, create_scheme, default_45nm, paper_experiment
from repro.analysis import render_table
from repro.power import analyse_leakage, analyse_minimum_idle_time, analyse_total_power

SCHEMES = ["SC", "DFC", "DPC", "SDFC", "SDPC"]


def test_table1_full_comparison(benchmark, paper_values):
    """Time the end-to-end Table 1 regeneration and print the whole table."""
    comparison = benchmark.pedantic(
        lambda: compare_schemes(paper_experiment()), rounds=1, iterations=1
    )
    print()
    print(comparison.as_table_text())


def test_table1_delay_rows(benchmark, table1_records, paper_values):
    """Delay rows: high-to-low and low-to-high / pre-charge delay (ps)."""
    library = default_45nm()

    def measure_delays():
        return {name: create_scheme(name, library).delay_report() for name in SCHEMES}

    reports = benchmark.pedantic(measure_delays, rounds=1, iterations=1)
    rows = []
    for name in SCHEMES:
        rows.append([
            name,
            reports[name].high_to_low * 1e12,
            paper_values[name]["hl_ps"],
            reports[name].low_to_high * 1e12,
            paper_values[name]["lh_ps"],
        ])
    print()
    print(render_table(
        ["scheme", "HL meas (ps)", "HL paper (ps)", "LH meas (ps)", "LH paper (ps)"],
        rows, title="Table 1 delay rows",
    ))


def test_table1_leakage_rows(benchmark, paper_values):
    """Active and standby leakage savings versus SC (percent)."""
    library = default_45nm()

    def measure_leakage():
        analyses = {name: analyse_leakage(create_scheme(name, library)) for name in SCHEMES}
        baseline = analyses["SC"]
        return {
            name: (
                analysis.active_saving_versus(baseline) * 100.0,
                analysis.standby_saving_versus(baseline) * 100.0,
            )
            for name, analysis in analyses.items()
            if name != "SC"
        }

    savings = benchmark.pedantic(measure_leakage, rounds=1, iterations=1)
    rows = []
    for name in SCHEMES[1:]:
        active, standby = savings[name]
        rows.append([
            name, active, paper_values[name]["active_saving"],
            standby, paper_values[name]["standby_saving"],
        ])
    print()
    print(render_table(
        ["scheme", "active meas (%)", "active paper (%)", "standby meas (%)", "standby paper (%)"],
        rows, title="Table 1 leakage-savings rows",
    ))


def test_table1_minimum_idle_time(benchmark, paper_values):
    """Minimum idle time row (cycles at 3 GHz)."""
    library = default_45nm()

    def measure_idle():
        return {
            name: analyse_minimum_idle_time(create_scheme(name, library)).minimum_idle_cycles
            for name in SCHEMES
        }

    cycles = benchmark.pedantic(measure_idle, rounds=1, iterations=1)
    rows = [[name, cycles[name], paper_values[name]["min_idle"]] for name in SCHEMES]
    print()
    print(render_table(["scheme", "measured (cycles)", "paper (cycles)"], rows,
                       title="Table 1 minimum idle time"))


def test_table1_total_power(benchmark, paper_values):
    """Total power row at 3 GHz and 50 % static probability (mW)."""
    library = default_45nm()

    def measure_power():
        return {
            name: analyse_total_power(create_scheme(name, library)).total * 1e3
            for name in SCHEMES
        }

    totals = benchmark.pedantic(measure_power, rounds=1, iterations=1)
    rows = [[name, totals[name], paper_values[name]["total_mw"]] for name in SCHEMES]
    print()
    print(render_table(["scheme", "measured (mW)", "paper (mW)"], rows,
                       title="Table 1 total power (absolute values differ; see PAPER_TABLE1)"))


def test_table1_delay_penalty_row(benchmark, table1_records, paper_values):
    """Delay penalty row (percent of the SC worst-case delay)."""
    def collect():
        return {name: table1_records[name]["delay_penalty_percent"] for name in SCHEMES}

    penalties = benchmark.pedantic(collect, rounds=1, iterations=1)
    rows = [
        [name, penalties[name], paper_values[name]["penalty"] if paper_values[name]["penalty"] is not None else "-"]
        for name in SCHEMES[1:]
    ]
    print()
    print(render_table(["scheme", "measured (%)", "paper (%)"], rows, title="Table 1 delay penalty"))

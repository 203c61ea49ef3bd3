"""NoC-level benchmarks: the standby mode under realistic traffic.

The paper motivates its standby mode with router idle periods; these
benchmarks measure idle-interval distributions on a mesh under several
traffic patterns and injection rates, then apply the Table 1 break-even
thresholds to report how much of the idle leakage each scheme actually
recovers.

Every mesh/traffic/simulation knob comes from a
:class:`~repro.noc.noc_power.NocPowerConfig`, so the workload these
benches measure is one ``dataclasses.replace`` call away from any other
(wider meshes, hotter spots, longer runs), not a hard-coded constant.
"""

from __future__ import annotations

from dataclasses import replace

from repro import create_scheme, default_45nm
from repro.analysis import render_table
from repro.noc import (
    GatingPolicy,
    NocPowerConfig,
    NocPowerModel,
    TrafficPattern,
    evaluate_gating,
)
from repro.power import analyse_minimum_idle_time

#: The benches' base workload (the mesh and simulation defaults made
#: explicit, so the table titles below can quote the config rather than
#: literals).
BASE_CONFIG = NocPowerConfig(
    mesh_columns=4,
    mesh_rows=4,
    traffic_seed=3,
    simulation_cycles=2000,
    warmup_cycles=200,
)


def _mesh_title(config: NocPowerConfig, suffix: str) -> str:
    return f"{config.mesh_columns}x{config.mesh_rows} mesh, {suffix}"


def test_noc_idle_interval_distribution(benchmark):
    """Idle-interval statistics of crossbar output ports under three patterns."""
    base = replace(BASE_CONFIG, injection_rate=0.1)

    def measure():
        results = {}
        for pattern in (TrafficPattern.UNIFORM, TrafficPattern.TRANSPOSE,
                        TrafficPattern.HOTSPOT):
            result = replace(base, traffic_pattern=pattern.value).simulate()
            intervals = result.idle_intervals()
            results[pattern.value] = {
                "latency": result.average_latency,
                "utilisation": result.average_crossbar_utilisation,
                "intervals": len(intervals),
                "mean_interval": sum(intervals) / len(intervals) if intervals else 0.0,
                "long_intervals": sum(1 for i in intervals if i >= 10),
            }
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [pattern, values["latency"], values["utilisation"] * 100, values["intervals"],
         values["mean_interval"], values["long_intervals"]]
        for pattern, values in results.items()
    ]
    print()
    print(render_table(
        ["pattern", "avg latency (cyc)", "xbar util (%)", "idle intervals",
         "mean interval (cyc)", "intervals >= 10 cyc"],
        rows, title=_mesh_title(base, f"injection {base.injection_rate} flits/node/cycle"),
    ))
    for values in results.values():
        assert values["mean_interval"] >= 1.0


def test_noc_power_gating_savings_per_scheme(benchmark):
    """Net leakage energy recovered by the standby mode for each scheme."""
    library = default_45nm()
    simulation = replace(BASE_CONFIG, injection_rate=0.08).simulate()
    intervals = simulation.idle_intervals()

    def measure():
        results = {}
        for name in ("SC", "DFC", "DPC", "SDFC", "SDPC"):
            scheme = create_scheme(name, library)
            analysis = analyse_minimum_idle_time(scheme)
            # Apply one port's measured idle pattern to the whole crossbar:
            # idle/standby powers and the transition energy are all
            # whole-crossbar figures, so the report's ratios are consistent.
            idle_power = scheme.idle_leakage().power(scheme.supply_voltage)
            standby_power = scheme.standby_leakage_power()
            report = evaluate_gating(
                intervals, simulation.cycles, analysis, idle_power, standby_power,
                GatingPolicy(idle_detect_cycles=max(2, analysis.minimum_idle_cycles)),
            )
            results[name] = report
        return results

    reports = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [name, report.gated_fraction_of_idle * 100, report.sleep_transitions,
         report.net_energy_saved * 1e9, report.saving_fraction * 100]
        for name, report in reports.items()
    ]
    print()
    print(render_table(
        ["scheme", "idle cycles gated (%)", "sleep transitions", "net energy saved (nJ)",
         "saving vs idle leakage (%)"],
        rows, title="Power gating under uniform traffic (whole-crossbar figures)",
    ))
    # The deepest standby states (pre-charged schemes) recover the most idle
    # leakage; no scheme may lose energy when the policy respects its own
    # break-even threshold.
    assert reports["DPC"].saving_fraction >= reports["DFC"].saving_fraction
    assert reports["SDPC"].saving_fraction >= reports["DFC"].saving_fraction
    for report in reports.values():
        assert report.net_energy_saved >= 0.0


def test_noc_injection_rate_sweep(benchmark):
    """Network power versus offered load for the SC and SDPC crossbars."""
    library = default_45nm()
    base = replace(BASE_CONFIG, simulation_cycles=1500)
    rates = [0.02, 0.1, 0.25]

    def measure():
        results = {}
        for rate in rates:
            simulation = replace(base, injection_rate=rate).simulate()
            row = {"utilisation": simulation.average_crossbar_utilisation * 100}
            for name in ("SC", "SDPC"):
                scheme = create_scheme(name, library)
                report = NocPowerModel(scheme, NocPowerConfig(gating_enabled=True)).evaluate(simulation)
                row[name] = report.total * 1e3
                row[f"{name}_leak"] = report.crossbar_leakage * 1e3
            results[rate] = row
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [rate, values["utilisation"], values["SC"], values["SDPC"],
         values["SC_leak"], values["SDPC_leak"]]
        for rate, values in results.items()
    ]
    print()
    print(render_table(
        ["injection (flits/node/cyc)", "xbar util (%)", "SC total (mW)", "SDPC total (mW)",
         "SC xbar leak (mW)", "SDPC xbar leak (mW)"],
        rows, title=_mesh_title(base, "network power vs offered load (gating enabled)"),
    ))
    for values in results.values():
        assert values["SDPC_leak"] < values["SC_leak"]


def test_noc_gating_benefit_grows_with_burstiness(benchmark):
    """Bursty traffic lengthens idle intervals and increases the gating benefit."""
    library = default_45nm()
    scheme = create_scheme("DPC", library)
    base = replace(BASE_CONFIG, injection_rate=0.08, traffic_burst_phase_length=60,
                   traffic_seed=7, simulation_cycles=2500)

    def measure():
        results = {}
        for burst_on in (1.0, 0.3):
            simulation = replace(base, traffic_burst_on_fraction=burst_on).simulate()
            report = NocPowerModel(scheme, NocPowerConfig(gating_enabled=True)).evaluate(simulation)
            results[burst_on] = report.gating_net_saving * 1e3
        return results

    savings = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[burst_on, saving] for burst_on, saving in savings.items()]
    print()
    print(render_table(["burst on-fraction", "gating net saving (mW)"], rows,
                       title="Gating benefit vs traffic burstiness (DPC crossbar)"))
    assert savings[0.3] >= 0.0

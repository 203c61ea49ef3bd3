"""Benchmarks: regenerate the quantitative content of Figures 1-3.

The figures are circuit schematics; the reproducible content is the
device inventory / Vt partition of one output path (Figs. 1, 2) and the
path-1 vs path-2 asymmetry of the segmented designs (Fig. 3).
"""

from __future__ import annotations

from repro import create_scheme, default_45nm
from repro.analysis import describe_output_path, describe_segmentation, render_table


def test_fig1_dfc_structure(benchmark):
    """Figure 1: the DFC output path (pass devices, keeper, sleep, driver, Vt split)."""
    library = default_45nm()

    def build():
        return {name: describe_output_path(create_scheme(name, library)) for name in ("SC", "DFC")}

    structures = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = []
    for name, structure in structures.items():
        rows.append([
            name, structure.device_count, structure.pass_transistor_count,
            structure.has_keeper, structure.has_sleep, structure.high_vt_count,
            ", ".join(structure.high_vt_roles) or "-",
        ])
    print()
    print(render_table(
        ["scheme", "devices", "pass xtors", "keeper", "sleep", "high-Vt devices", "high-Vt roles"],
        rows, title="Figure 1: DFC output path structure (SC shown for contrast)",
    ))
    dfc = structures["DFC"]
    assert dfc.pass_transistor_count == 4
    assert dfc.has_keeper and dfc.has_sleep and not dfc.has_precharge
    assert set(dfc.high_vt_roles) == {"keeper", "sleep"}


def test_fig2_dpc_structure(benchmark):
    """Figure 2: the DPC output path (pre-charge device, asymmetric-Vt driver)."""
    library = default_45nm()

    def build():
        return describe_output_path(create_scheme("DPC", library))

    structure = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print(render_table(
        ["devices", "pass xtors", "precharge", "sleep", "high-Vt", "nominal-Vt", "high-Vt roles"],
        [[structure.device_count, structure.pass_transistor_count, structure.has_precharge,
          structure.has_sleep, structure.high_vt_count, structure.nominal_vt_count,
          ", ".join(structure.high_vt_roles)]],
        title="Figure 2: DPC output path structure",
    ))
    assert structure.has_precharge and not structure.has_keeper
    assert "driver" in structure.high_vt_roles and "precharge" in structure.high_vt_roles
    # Asymmetric driver: some driver devices stay nominal.
    assert structure.nominal_vt_count > 0


def test_fig3_segmentation_paths(benchmark):
    """Figure 3: path 1 (near) vs path 2 (far) loads and delays in SDFC / SDPC."""
    library = default_45nm()

    def build():
        return {
            name: describe_segmentation(create_scheme(name, library))
            for name in ("SDFC", "SDPC")
        }

    structures = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = []
    for name, seg in structures.items():
        rows.append([
            name, seg.near_inputs, seg.far_inputs,
            seg.near_wire_resistance, seg.far_wire_resistance,
            seg.near_wire_capacitance * 1e15, seg.far_wire_capacitance * 1e15,
            seg.near_path_delay * 1e12, seg.far_path_delay * 1e12,
            seg.near_path_slack_fraction * 100.0,
        ])
    print()
    print(render_table(
        ["scheme", "near inputs", "far inputs", "near R (ohm)", "far R (ohm)",
         "near C (fF)", "far C (fF)", "path1 delay (ps)", "path2 delay (ps)", "path1 slack (%)"],
        rows, title="Figure 3: segmented crossbar path-1 / path-2 asymmetry",
    ))
    for seg in structures.values():
        assert seg.far_path_delay > seg.near_path_delay
        assert seg.near_path_slack_fraction > 0.1


def test_fig3_per_segment_control_inventory(benchmark):
    """Figure 3: per-segment sleep (and pre-charge) devices of the segmented schemes."""
    library = default_45nm()

    def build():
        result = {}
        for name in ("DFC", "SDFC", "DPC", "SDPC"):
            from repro.circuit import DeviceRole

            stats = create_scheme(name, library).single_bit_statistics
            result[name] = {
                "sleep": stats.count_by_role.get(DeviceRole.SLEEP, 0),
                "precharge": stats.count_by_role.get(DeviceRole.PRECHARGE, 0),
                "segment_switch": stats.count_by_role.get(DeviceRole.SEGMENT_SWITCH, 0),
            }
        return result

    inventory = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = [[name, counts["sleep"], counts["precharge"], counts["segment_switch"]]
            for name, counts in inventory.items()]
    print()
    print(render_table(["scheme", "sleep devices", "precharge devices", "segment switches"],
                       rows, title="Figure 3: per-segment control devices (per bit, per output)"))
    assert inventory["SDFC"]["sleep"] == 2 * inventory["DFC"]["sleep"]
    assert inventory["SDPC"]["precharge"] == 2 * inventory["DPC"]["precharge"]

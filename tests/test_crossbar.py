"""Tests for the crossbar schemes — the paper's contribution.

These tests assert the *mechanisms* of each scheme (which devices are
high-Vt, what the sleep/pre-charge state does, how segmentation changes
the switched capacitance) rather than calibrated absolute numbers; the
quantitative reproduction of Table 1 lives in the integration tests and
the benchmark suite.
"""

from __future__ import annotations

import pytest

from repro.crossbar import (
    CrossbarConfig,
    SchemeFeatures,
    available_schemes,
    create_scheme,
    register_scheme,
)
from repro.crossbar.dfc import DualVtFeedbackCrossbar
from repro.crossbar.sc import SingleVtCrossbar
from repro.errors import CrossbarError
from repro.technology import VtFlavor


class TestCrossbarConfig:
    def test_paper_defaults(self, crossbar_config):
        assert crossbar_config.port_count == 5
        assert crossbar_config.flit_width == 128
        assert crossbar_config.inputs_per_output == 4
        assert crossbar_config.total_crosspoints == 5 * 4 * 128

    def test_self_connection_changes_fan_in(self):
        config = CrossbarConfig(allow_self_connection=True)
        assert config.inputs_per_output == 5

    def test_derived_wire_lengths_scale_with_flit_width(self, library):
        narrow = CrossbarConfig(flit_width=32)
        wide = CrossbarConfig(flit_width=128)
        assert wide.crossbar_span(library) == pytest.approx(4 * narrow.crossbar_span(library))

    def test_explicit_wire_length_overrides_derivation(self, library):
        config = CrossbarConfig(row_wire_length=200e-6)
        assert config.resolved_row_wire_length(library) == pytest.approx(200e-6)
        assert config.resolved_input_wire_length(library) != pytest.approx(200e-6)

    def test_receiver_capacitance_default_positive(self, library, crossbar_config):
        assert crossbar_config.resolved_receiver_capacitance(library) > 0

    def test_invalid_configs_rejected(self):
        with pytest.raises(CrossbarError):
            CrossbarConfig(port_count=1)
        with pytest.raises(CrossbarError):
            CrossbarConfig(flit_width=0)
        with pytest.raises(CrossbarError):
            CrossbarConfig(pass_width=-1.0)
        with pytest.raises(CrossbarError):
            CrossbarConfig(timing_budget_fraction=0.0)

    def test_with_overrides_returns_modified_copy(self, crossbar_config):
        modified = crossbar_config.with_overrides(flit_width=64)
        assert modified.flit_width == 64
        assert crossbar_config.flit_width == 128


class TestFactory:
    def test_all_five_schemes_available_in_table_order(self):
        assert available_schemes()[:5] == ["SC", "DFC", "DPC", "SDFC", "SDPC"]

    def test_create_scheme_case_insensitive(self, library):
        assert create_scheme("dfc", library).name == "DFC"

    def test_unknown_scheme_raises(self, library):
        with pytest.raises(CrossbarError):
            create_scheme("XYZ", library)

    def test_create_all_returns_every_scheme(self, schemes):
        assert set(schemes) >= {"SC", "DFC", "DPC", "SDFC", "SDPC"}

    def test_register_rejects_duplicates_without_overwrite(self):
        with pytest.raises(CrossbarError):
            register_scheme("SC", SingleVtCrossbar)

    def test_register_and_use_custom_scheme(self, library):
        from repro.crossbar import factory

        register_scheme("SC2", SingleVtCrossbar, overwrite=True)
        try:
            assert create_scheme("SC2", library).name == "SC"
            assert "SC2" in available_schemes()
        finally:
            factory._REGISTRY.pop("SC2", None)


class TestSchemeStructure:
    def test_features_match_paper_descriptions(self, schemes):
        assert schemes["SC"].features.has_keeper and not schemes["SC"].features.has_precharge
        assert schemes["DFC"].features.has_keeper and not schemes["DFC"].features.segmented
        assert schemes["DPC"].features.has_precharge and not schemes["DPC"].features.has_keeper
        assert schemes["SDFC"].features.segmented and schemes["SDFC"].features.has_keeper
        assert schemes["SDPC"].features.segmented and schemes["SDPC"].features.has_precharge

    def test_keeper_and_precharge_mutually_exclusive(self):
        with pytest.raises(CrossbarError):
            SchemeFeatures(has_keeper=True, has_precharge=True)

    def test_sc_uses_only_nominal_devices(self, schemes):
        stats = schemes["SC"].output_path_netlist().statistics()
        assert stats.count_by_flavor.get(VtFlavor.HIGH, 0) == 0

    def test_dual_vt_schemes_contain_high_vt_devices(self, schemes):
        for name in ("DFC", "DPC", "SDFC", "SDPC"):
            stats = schemes[name].output_path_netlist().statistics()
            assert stats.count_by_flavor.get(VtFlavor.HIGH, 0) > 0, name

    def test_high_vt_fraction_increases_along_scheme_ladder(self, schemes):
        fractions = {
            name: schemes[name].output_path_netlist().statistics().high_vt_fraction
            for name in ("SC", "DFC", "SDPC")
        }
        assert fractions["SC"] < fractions["DFC"] < fractions["SDPC"]

    def test_dfc_high_vt_devices_are_off_the_data_path(self, schemes):
        dfc = schemes["DFC"]
        assert dfc.keeper.pmos.vt_flavor is VtFlavor.HIGH
        assert dfc.sleep.nmos.vt_flavor is VtFlavor.HIGH
        assert dfc.driver2.nmos.vt_flavor is VtFlavor.NOMINAL
        assert dfc.pass_switch.nmos.vt_flavor is VtFlavor.NOMINAL

    def test_dpc_driver_vt_is_asymmetric(self, schemes):
        dpc = schemes["DPC"]
        assert dpc.driver1.nmos.vt_flavor is VtFlavor.HIGH
        assert dpc.driver1.pmos.vt_flavor is VtFlavor.NOMINAL
        assert dpc.driver2.nmos.vt_flavor is VtFlavor.NOMINAL
        assert dpc.driver2.pmos.vt_flavor is VtFlavor.HIGH

    def test_sdpc_drivers_fully_high_vt(self, schemes):
        sdpc = schemes["SDPC"]
        for device in (sdpc.driver1.nmos, sdpc.driver1.pmos, sdpc.driver2.nmos, sdpc.driver2.pmos):
            assert device.vt_flavor is VtFlavor.HIGH

    def test_output_path_netlist_counts(self, schemes, crossbar_config):
        path = schemes["SC"].output_path_netlist()
        stats = path.statistics()
        from repro.circuit import DeviceRole

        assert stats.count_by_role[DeviceRole.PASS_TRANSISTOR] == crossbar_config.inputs_per_output
        assert stats.count_by_role[DeviceRole.KEEPER] == 1
        assert stats.count_by_role[DeviceRole.SLEEP] == 1
        assert stats.count_by_role[DeviceRole.DRIVER] == 4  # I1 + I2, two devices each

    def test_segmented_path_has_segment_switch_and_two_sleeps(self, schemes):
        from repro.circuit import DeviceRole

        stats = schemes["SDFC"].output_path_netlist().statistics()
        assert stats.count_by_role[DeviceRole.SEGMENT_SWITCH] == 1
        assert stats.count_by_role[DeviceRole.SLEEP] == 2

    def test_sdpc_has_per_segment_precharge(self, schemes):
        from repro.circuit import DeviceRole

        stats = schemes["SDPC"].output_path_netlist().statistics()
        assert stats.count_by_role[DeviceRole.PRECHARGE] == 2

    def test_full_netlist_scales_with_bits(self, library, small_crossbar_config):
        scheme = create_scheme("SC", library, small_crossbar_config)
        one_bit = scheme.build_netlist(bits=1)
        two_bits = scheme.build_netlist(bits=2)
        assert len(two_bits) == 2 * len(one_bit)

    def test_full_netlist_merge_nodes_are_drivable(self, library, small_crossbar_config):
        scheme = create_scheme("DFC", library, small_crossbar_config)
        netlist = scheme.build_netlist(bits=1)
        assert netlist.net_is_drivable("out_pe.bit0.merge_near")
        assert netlist.net_is_drivable("out_pe.bit0.port_wire")

    def test_build_netlist_rejects_bad_bit_count(self, schemes):
        with pytest.raises(CrossbarError):
            schemes["SC"].build_netlist(bits=0)
        with pytest.raises(CrossbarError):
            schemes["SC"].build_netlist(bits=1000)


class TestOutputPathInventory:
    """The closed-form single-bit inventory, and netlists of every radix."""

    @pytest.mark.parametrize("node", ["90nm", "45nm"])
    def test_closed_form_statistics_match_the_netlist(self, node):
        from repro.technology.library import default_library_for_node

        library = default_library_for_node(node)
        for ports in range(2, 9):
            for self_connection in (False, True):
                config = CrossbarConfig(port_count=ports, flit_width=16,
                                        allow_self_connection=self_connection)
                for name in available_schemes():
                    try:
                        scheme = create_scheme(name, library, config)
                    except CrossbarError:
                        # Only a 2-port, no-self crossbar is too small to
                        # segment (one crosspoint per row).
                        assert (ports, self_connection) == (2, False)
                        continue
                    closed = scheme.single_bit_statistics
                    netlist = scheme.output_path_netlist().statistics()
                    case = (node, ports, self_connection, name)
                    assert closed.device_count == netlist.device_count, case
                    assert closed.count_by_flavor == netlist.count_by_flavor, case
                    assert closed.count_by_polarity == netlist.count_by_polarity, case
                    assert closed.count_by_role == netlist.count_by_role, case
                    assert closed.width_by_flavor.keys() == netlist.width_by_flavor.keys()
                    for flavor, width in netlist.width_by_flavor.items():
                        assert closed.width_by_flavor[flavor] == pytest.approx(
                            width, rel=1e-12), case
                    assert closed.total_width == pytest.approx(netlist.total_width,
                                                               rel=1e-12), case

    @pytest.mark.parametrize("ports", [6, 8])
    @pytest.mark.parametrize("self_connection", [False, True])
    def test_wide_crossbar_netlists_carry_every_crosspoint(self, library, ports,
                                                           self_connection):
        from repro.circuit import DeviceRole

        config = CrossbarConfig(port_count=ports, flit_width=4,
                                allow_self_connection=self_connection)
        assert config.port_names == ("north", "south", "west", "east", "pe") + tuple(
            f"port{index}" for index in range(5, ports))
        scheme = create_scheme("SC", library, config)
        path = scheme.output_path_netlist().statistics()
        assert path.count_by_role[DeviceRole.PASS_TRANSISTOR] == config.inputs_per_output
        # Crosspoints + keeper + sleep + two driver inverters.
        assert path.device_count == config.inputs_per_output + 6
        assert len(scheme.output_path_netlist("port5")) == path.device_count
        netlist = scheme.build_netlist(bits=1)
        rows = {device.name.split(".")[0] for device in netlist.devices
                if device.name.startswith("out_")}
        assert rows == {f"out_{port}" for port in config.port_names}
        assert len(netlist.devices_with_role(DeviceRole.PASS_TRANSISTOR)) == \
            ports * config.inputs_per_output
        assert len(netlist.devices_with_role(DeviceRole.INPUT_DRIVER)) == 2 * ports

    def test_high_vt_fraction_counts_every_crosspoint_of_an_eight_port_row(self):
        from repro import compare_schemes, paper_experiment

        config = paper_experiment().with_overrides(**{"crossbar.port_count": 8})
        records = {record["scheme"]: record
                   for record in compare_schemes(config).as_records()}
        # DFC: high-Vt keeper and sleep among 7 crosspoints + 6 other devices.
        assert records["DFC"]["high_vt_device_fraction"] == 2 / 13


class TestSchemeTiming:
    def test_all_delays_in_crossbar_plausible_range(self, schemes):
        for name, scheme in schemes.items():
            report = scheme.delay_report()
            assert 10e-12 < report.high_to_low < 200e-12, name
            assert 10e-12 < report.low_to_high < 200e-12, name

    def test_dfc_high_to_low_faster_than_sc(self, schemes):
        # The high-Vt keeper opposes the falling merge node less.
        assert schemes["DFC"].delay_report().high_to_low < schemes["SC"].delay_report().high_to_low

    def test_dfc_low_to_high_not_faster_than_sc(self, schemes):
        assert schemes["DFC"].delay_report().low_to_high >= \
            schemes["SC"].delay_report().low_to_high * 0.999

    def test_segmented_schemes_pay_a_delay_penalty(self, schemes):
        baseline = schemes["SC"].delay_report()
        assert schemes["SDFC"].delay_report().penalty_versus(baseline) > 0

    def test_unsegmented_dual_vt_schemes_have_no_penalty(self, schemes):
        baseline = schemes["SC"].delay_report()
        assert schemes["DFC"].delay_report().penalty_versus(baseline) == 0.0
        assert schemes["DPC"].delay_report().penalty_versus(baseline) == 0.0

    def test_near_path_faster_than_far_path_in_segmented_schemes(self, schemes):
        sdfc = schemes["SDFC"]
        near = sdfc._merge_stage(falling=True, far_path=False).delay()
        far = sdfc._merge_stage(falling=True, far_path=True).delay()
        assert near < far

    def test_delays_shrink_with_smaller_crossbar(self, library):
        small = create_scheme("SC", library, CrossbarConfig(flit_width=32))
        large = create_scheme("SC", library, CrossbarConfig(flit_width=128))
        assert small.delay_report().high_to_low < large.delay_report().high_to_low


class TestSchemeLeakage:
    def test_every_dual_vt_scheme_saves_active_leakage(self, schemes):
        baseline = schemes["SC"].active_leakage_power()
        for name in ("DFC", "DPC", "SDFC", "SDPC"):
            assert schemes[name].active_leakage_power() < baseline, name

    def test_every_scheme_saves_standby_leakage_versus_sc(self, schemes):
        baseline = schemes["SC"].standby_leakage_power()
        for name in ("DFC", "DPC", "SDFC", "SDPC"):
            assert schemes[name].standby_leakage_power() < baseline, name

    def test_standby_leaks_less_than_idle_for_every_scheme(self, schemes):
        for name, scheme in schemes.items():
            idle = scheme.idle_leakage().power(scheme.supply_voltage)
            standby = scheme.standby_leakage_power()
            assert standby < idle, name

    def test_precharged_schemes_dominate_standby_savings(self, schemes):
        baseline = schemes["SC"].standby_leakage_power()
        dpc_saving = 1 - schemes["DPC"].standby_leakage_power() / baseline
        dfc_saving = 1 - schemes["DFC"].standby_leakage_power() / baseline
        assert dpc_saving > 0.8
        assert dpc_saving > 5 * dfc_saving

    def test_sdpc_has_best_active_savings(self, schemes):
        baseline = schemes["SC"].active_leakage_power()
        savings = {
            name: 1 - schemes[name].active_leakage_power() / baseline
            for name in ("DFC", "DPC", "SDFC", "SDPC")
        }
        assert max(savings, key=savings.get) == "SDPC"

    def test_leakage_scales_with_flit_width(self, library):
        narrow = create_scheme("SC", library, CrossbarConfig(flit_width=64))
        wide = create_scheme("SC", library, CrossbarConfig(flit_width=128))
        assert wide.active_leakage_power() == pytest.approx(2 * narrow.active_leakage_power(),
                                                            rel=1e-6)

    def test_leakage_higher_at_higher_temperature(self, library, cold_library, crossbar_config):
        hot = create_scheme("SC", library, crossbar_config)
        cold = create_scheme("SC", cold_library, crossbar_config)
        assert hot.active_leakage_power() > 2 * cold.active_leakage_power()

    def test_static_probability_bounds_checked(self, schemes):
        with pytest.raises(CrossbarError):
            schemes["SC"].active_leakage(1.5)


class TestSchemeDynamicAndStandby:
    def test_dynamic_energy_positive_and_scales_with_activity(self, schemes):
        low = schemes["SC"].dynamic_energy_per_cycle(toggle_activity=0.2)
        high = schemes["SC"].dynamic_energy_per_cycle(toggle_activity=0.8)
        assert 0 < low < high

    def test_precharged_scheme_dynamic_power_worst_at_half_static_probability(self, schemes):
        dpc = schemes["DPC"]
        half = dpc.dynamic_energy_per_cycle(static_probability=0.5)
        mostly_ones = dpc.dynamic_energy_per_cycle(static_probability=0.9)
        assert half > mostly_ones

    def test_feedback_scheme_insensitive_to_polarity(self, schemes):
        sc = schemes["SC"]
        assert sc.dynamic_energy_per_cycle(static_probability=0.3) == pytest.approx(
            sc.dynamic_energy_per_cycle(static_probability=0.7)
        )

    def test_segmentation_reduces_switched_row_capacitance(self, schemes):
        assert schemes["SDFC"]._row_switched_capacitance() < \
            schemes["DFC"]._row_switched_capacitance()

    def test_segmented_feedback_scheme_has_lower_dynamic_power(self, schemes):
        assert schemes["SDFC"].dynamic_power() < schemes["SC"].dynamic_power()

    def test_total_power_is_dynamic_plus_leakage(self, schemes):
        scheme = schemes["DFC"]
        assert scheme.total_power() == pytest.approx(
            scheme.dynamic_power() + scheme.active_leakage_power(), rel=1e-9
        )

    def test_sleep_transition_energy_positive_for_sleep_capable_schemes(self, schemes):
        for name, scheme in schemes.items():
            assert scheme.sleep_transition_energy() > 0, name

    def test_standby_power_saving_positive(self, schemes):
        for name, scheme in schemes.items():
            assert scheme.standby_power_saving() > 0, name

    def test_segmented_transition_costs_more_control_energy_than_flat(self, schemes):
        assert schemes["SDFC"].sleep_transition_energy() > schemes["DFC"].sleep_transition_energy() * 0.99


class TestMergeCapacitances:
    def test_merge_capacitance_composition(self, schemes):
        sc = schemes["SC"]
        assert sc.far_merge_capacitance() == 0.0
        assert sc.merge_capacitance() == pytest.approx(sc.near_merge_capacitance())

    def test_segmented_scheme_splits_merge_capacitance(self, schemes):
        sdfc = schemes["SDFC"]
        assert sdfc.far_merge_capacitance() > 0
        assert sdfc.merge_capacitance() == pytest.approx(
            sdfc.near_merge_capacitance() + sdfc.far_merge_capacitance()
        )

    def test_output_path_count(self, schemes, crossbar_config):
        assert schemes["SC"].output_path_count == crossbar_config.port_count * crossbar_config.flit_width


class TestDescriptions:
    def test_every_scheme_has_name_and_description(self, schemes):
        for name, scheme in schemes.items():
            assert scheme.name == name
            assert len(scheme.description) > 10

    def test_dfc_is_sc_plus_vt_changes_only(self, library, crossbar_config):
        sc = SingleVtCrossbar(library, crossbar_config)
        dfc = DualVtFeedbackCrossbar(library, crossbar_config)
        assert len(sc.output_path_netlist()) == len(dfc.output_path_netlist())
        assert sc.features.has_keeper == dfc.features.has_keeper
        assert sc.features.has_sleep == dfc.features.has_sleep

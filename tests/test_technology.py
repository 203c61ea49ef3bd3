"""Tests for the technology substrate: ITRS geometry, BPTM wire models,
MOSFET leakage/drive models, corners and the bundled library."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import TechnologyError
from repro.technology import (
    ITRS_NODES,
    Mosfet,
    OperatingCondition,
    Polarity,
    VtFlavor,
    WireElectricalModel,
    WireGeometry,
    available_nodes,
    default_library_for_node,
    get_corner,
    get_node,
    stack_factor,
    subthreshold_current,
    temperature_scaled_vt,
    wire_capacitance_per_meter,
    wire_resistance_per_meter,
)
from repro.technology.leakage_model import gate_leakage_current, junction_leakage_current


class TestItrsNodes:
    def test_45nm_node_exists_with_paper_parameters(self):
        node = get_node("45nm")
        assert node.supply_voltage == pytest.approx(1.0)
        assert node.nominal_clock_hz == pytest.approx(3.0e9)
        assert node.feature_size == pytest.approx(45e-9)

    def test_every_node_has_three_wire_layers(self):
        for node in ITRS_NODES.values():
            assert set(node.wires) == {"local", "intermediate", "global"}

    def test_pitch_is_width_plus_spacing(self):
        layer = get_node("45nm").wire_layer("intermediate")
        assert layer.pitch == pytest.approx(layer.width + layer.spacing)

    def test_wire_geometry_scales_down_with_node(self):
        older = get_node("90nm").wire_layer("intermediate")
        newer = get_node("45nm").wire_layer("intermediate")
        assert newer.pitch < older.pitch

    def test_supply_voltage_scales_down_with_node(self):
        assert get_node("45nm").supply_voltage < get_node("90nm").supply_voltage

    def test_unknown_node_raises(self):
        with pytest.raises(TechnologyError):
            get_node("7nm")

    def test_unknown_layer_raises(self):
        with pytest.raises(TechnologyError):
            get_node("45nm").wire_layer("metal9")

    def test_available_nodes_sorted_old_to_new(self):
        names = available_nodes()
        sizes = [ITRS_NODES[name].feature_size for name in names]
        assert sizes == sorted(sizes, reverse=True)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(TechnologyError):
            WireGeometry("bad", width=-1e-9, spacing=1e-9, thickness=1e-9,
                         height_above_plane=1e-9, dielectric_constant=2.7, resistivity=2e-8)

    def test_dielectric_below_vacuum_rejected(self):
        with pytest.raises(TechnologyError):
            WireGeometry("bad", width=1e-9, spacing=1e-9, thickness=1e-9,
                         height_above_plane=1e-9, dielectric_constant=0.5, resistivity=2e-8)


class TestBptmWireModel:
    @pytest.fixture()
    def geometry(self):
        return get_node("45nm").wire_layer("intermediate")

    def test_resistance_matches_sheet_formula(self, geometry):
        expected = geometry.resistivity / (geometry.width * geometry.thickness)
        assert wire_resistance_per_meter(geometry) == pytest.approx(expected)

    def test_resistance_per_micron_in_plausible_range(self, geometry):
        per_micron = wire_resistance_per_meter(geometry) * 1e-6
        assert 0.5 < per_micron < 20.0

    def test_capacitance_per_micron_in_plausible_range(self, geometry):
        per_micron = wire_capacitance_per_meter(geometry) * 1e-6
        assert 0.05e-15 < per_micron < 1.0e-15

    def test_capacitance_grows_with_neighbours(self, geometry):
        c0 = wire_capacitance_per_meter(geometry, neighbours=0)
        c1 = wire_capacitance_per_meter(geometry, neighbours=1)
        c2 = wire_capacitance_per_meter(geometry, neighbours=2)
        assert c0 < c1 < c2

    def test_invalid_neighbour_count_rejected(self, geometry):
        with pytest.raises(TechnologyError):
            wire_capacitance_per_meter(geometry, neighbours=3)

    def test_model_from_geometry_consistent(self, geometry):
        model = WireElectricalModel.from_geometry(geometry)
        assert model.resistance(1e-3) == pytest.approx(wire_resistance_per_meter(geometry) * 1e-3)
        assert model.capacitance(1e-3, 2) == pytest.approx(
            wire_capacitance_per_meter(geometry, 2) * 1e-3, rel=1e-9
        )

    def test_miller_factor_scales_coupling_only(self, geometry):
        model = WireElectricalModel.from_geometry(geometry)
        quiet = model.total_capacitance_per_meter(2, 1.0)
        worst = model.total_capacitance_per_meter(2, 2.0)
        best = model.total_capacitance_per_meter(2, 0.0)
        assert best < quiet < worst
        assert worst - quiet == pytest.approx(quiet - best)

    def test_negative_length_rejected(self, geometry):
        model = WireElectricalModel.from_geometry(geometry)
        with pytest.raises(TechnologyError):
            model.resistance(-1.0)

    def test_wider_wire_has_lower_resistance_higher_capacitance(self):
        narrow = get_node("45nm").wire_layer("intermediate")
        wide = get_node("45nm").wire_layer("global")
        assert wire_resistance_per_meter(wide) < wire_resistance_per_meter(narrow)


class TestLeakageModel:
    def test_subthreshold_exponential_in_vt(self):
        low = subthreshold_current(1e-6, 1.0, 0.0, 1.0, vt=0.22, subthreshold_swing=0.1, dibl=0.0)
        high = subthreshold_current(1e-6, 1.0, 0.0, 1.0, vt=0.32, subthreshold_swing=0.1, dibl=0.0)
        assert low / high == pytest.approx(10.0, rel=1e-6)

    def test_subthreshold_increases_with_temperature(self):
        cold = subthreshold_current(1e-6, 1.0, 0.0, 1.0, 0.3, 0.1, 0.1, temperature=300.0)
        hot = subthreshold_current(1e-6, 1.0, 0.0, 1.0, 0.3, 0.1, 0.1, temperature=383.0)
        assert hot > 2.0 * cold

    def test_subthreshold_dibl_increases_leakage_with_vds(self):
        low_vds = subthreshold_current(1e-6, 1.0, 0.0, 0.5, 0.3, 0.1, dibl=0.15)
        high_vds = subthreshold_current(1e-6, 1.0, 0.0, 1.0, 0.3, 0.1, dibl=0.15)
        assert high_vds > low_vds

    def test_subthreshold_zero_vds_means_zero_current(self):
        assert subthreshold_current(1e-6, 1.0, 0.0, 0.0, 0.3, 0.1, 0.1) == 0.0

    def test_subthreshold_scales_linearly_with_width(self):
        one = subthreshold_current(1e-6, 1.0, 0.0, 1.0, 0.3, 0.1, 0.1)
        two = subthreshold_current(2e-6, 1.0, 0.0, 1.0, 0.3, 0.1, 0.1)
        assert two == pytest.approx(2 * one)

    def test_subthreshold_rejects_negative_vds(self):
        with pytest.raises(TechnologyError):
            subthreshold_current(1e-6, 1.0, 0.0, -0.5, 0.3, 0.1, 0.1)

    def test_gate_leakage_zero_at_zero_voltage(self):
        assert gate_leakage_current(1e-6, 45e-9, 1e6, 0.0, 1.0) == 0.0

    def test_gate_leakage_superlinear_in_voltage(self):
        half = gate_leakage_current(1e-6, 45e-9, 1e6, 0.5, 1.0)
        full = gate_leakage_current(1e-6, 45e-9, 1e6, 1.0, 1.0)
        assert full > 4.0 * half

    def test_junction_leakage_scales_with_bias(self):
        half = junction_leakage_current(1e-6, 1e-3, 0.5, 1.0)
        full = junction_leakage_current(1e-6, 1e-3, 1.0, 1.0)
        assert full == pytest.approx(2 * half)

    def test_stack_factor_single_device_is_unity(self):
        assert stack_factor(1) == 1.0

    def test_stack_factor_two_devices_reduces_leakage(self):
        assert stack_factor(2) == pytest.approx(0.2)

    def test_stack_factor_zero_off_devices_is_zero(self):
        assert stack_factor(0) == 0.0

    def test_stack_factor_rejects_bad_base(self):
        with pytest.raises(TechnologyError):
            stack_factor(2, base_factor=1.5)

    def test_vt_decreases_with_temperature(self):
        assert temperature_scaled_vt(0.22, 383.0) < 0.22


class TestMosfet:
    def test_high_vt_leaks_about_an_order_less(self, library):
        nominal = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        high = library.make_transistor(Polarity.NMOS, VtFlavor.HIGH, 1e-6)
        ratio = nominal.off_current() / high.off_current()
        assert 5.0 < ratio < 50.0

    def test_high_vt_drives_less_current(self, library):
        nominal = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        high = library.make_transistor(Polarity.NMOS, VtFlavor.HIGH, 1e-6)
        assert high.saturation_current() < nominal.saturation_current()
        assert high.effective_resistance() > nominal.effective_resistance()

    def test_pmos_weaker_than_nmos(self, library):
        nmos = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        pmos = library.make_transistor(Polarity.PMOS, VtFlavor.NOMINAL, 1e-6)
        assert pmos.saturation_current() < nmos.saturation_current()

    def test_pass_resistance_exceeds_switching_resistance(self, library):
        device = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        assert device.pass_resistance() > device.effective_resistance()

    def test_capacitances_scale_with_width(self, library):
        one = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        two = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 2e-6)
        assert two.gate_capacitance() == pytest.approx(2 * one.gate_capacitance())
        assert two.diffusion_capacitance() == pytest.approx(2 * one.diffusion_capacitance())

    def test_leakage_higher_when_hot(self, library, cold_library):
        hot = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        cold = cold_library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        assert hot.off_current() > 3.0 * cold.off_current()

    def test_rejects_zero_width(self, library):
        with pytest.raises(TechnologyError):
            library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 0.0)

    def test_rejects_vt_above_supply(self, library):
        params = replace(library.device_parameters(Polarity.NMOS, VtFlavor.NOMINAL),
                         threshold_voltage=1.5)
        with pytest.raises(TechnologyError):
            Mosfet(params, 1e-6, supply_voltage=1.0)


class TestCornersAndLibrary:
    def test_fast_corner_leaks_more_and_drives_more(self, library):
        typical = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        fast_lib = library.with_corner("FF")
        fast = fast_lib.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        assert fast.off_current() > typical.off_current()
        assert fast.saturation_current() > typical.saturation_current()

    def test_slow_corner_leaks_less(self, library):
        slow = library.with_corner("SS").make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        typical = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        assert slow.off_current() < typical.off_current()

    def test_unknown_corner_raises(self):
        with pytest.raises(TechnologyError):
            get_corner("XX")

    def test_corner_lookup_is_case_insensitive(self):
        assert get_corner("ff").name == "FF"

    def test_operating_condition_temperature_conversion(self):
        condition = OperatingCondition(supply_voltage=1.0, temperature_celsius=110.0)
        assert condition.temperature_kelvin == pytest.approx(383.15)

    def test_default_45nm_matches_paper_operating_point(self, library):
        assert library.supply_voltage == pytest.approx(1.0)
        assert library.clock_frequency == pytest.approx(3e9)
        assert library.clock_period == pytest.approx(1 / 3e9)

    def test_library_wire_model_lookup(self, library):
        model = library.wire_model("intermediate")
        assert model.resistance_per_meter > 0
        with pytest.raises(TechnologyError):
            library.wire_model("bogus")

    def test_with_temperature_changes_leakage_only(self, library):
        cooler = library.with_temperature(25.0)
        hot_leak = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6).off_current()
        cold_leak = cooler.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6).off_current()
        assert cold_leak < hot_leak
        assert cooler.supply_voltage == library.supply_voltage

    def test_library_for_other_nodes(self):
        lib_65 = default_library_for_node("65nm")
        assert lib_65.node.name == "65nm"
        assert lib_65.supply_voltage == pytest.approx(1.1)

    def test_minimum_width_is_two_feature_sizes(self, library):
        assert library.minimum_width == pytest.approx(2 * 45e-9)

"""Tests for the circuit substrate: leakage accounting, biasing, gates,
device statistics and dynamic-energy helpers."""

from __future__ import annotations

import pytest

from repro.circuit import (
    DeviceRole,
    DeviceStatistics,
    Inverter,
    Keeper,
    LeakageBreakdown,
    PassTransistorSwitch,
    PrechargeTransistor,
    SleepTransistor,
    contention_energy,
    leakage_from_node_voltages,
    switching_energy,
)
from repro.circuit.leakage import AffineLeakage
from repro.errors import CircuitError, PowerError
from repro.technology import Polarity, VtFlavor


class TestLeakageBreakdown:
    def test_total_is_sum_of_mechanisms(self):
        breakdown = LeakageBreakdown(subthreshold=1e-6, gate=2e-6, junction=3e-6)
        assert breakdown.total == pytest.approx(6e-6)

    def test_addition_is_componentwise(self):
        a = LeakageBreakdown(1e-6, 2e-6, 3e-6)
        b = LeakageBreakdown(4e-6, 5e-6, 6e-6)
        combined = a + b
        assert combined.subthreshold == pytest.approx(5e-6)
        assert combined.gate == pytest.approx(7e-6)
        assert combined.junction == pytest.approx(9e-6)

    def test_scaling(self):
        breakdown = LeakageBreakdown(1e-6, 1e-6, 1e-6).scaled(128)
        assert breakdown.total == pytest.approx(384e-6)

    def test_power_at_supply(self):
        assert LeakageBreakdown(1e-3, 0, 0).power(1.0) == pytest.approx(1e-3)

    def test_negative_components_rejected(self):
        with pytest.raises(CircuitError):
            LeakageBreakdown(subthreshold=-1e-9)

    def test_negative_scale_rejected(self):
        with pytest.raises(CircuitError):
            LeakageBreakdown(1e-6, 0, 0).scaled(-1)

    def test_zero_is_additive_identity(self):
        a = LeakageBreakdown(1e-6, 2e-6, 3e-6)
        assert (a + LeakageBreakdown.zero()).total == pytest.approx(a.total)


class TestDeviceLeakage:
    def test_off_device_leaks_subthreshold(self, library):
        device = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        breakdown = leakage_from_node_voltages(device, 0.0, 1.0, 0.0)
        assert breakdown.subthreshold > 0
        assert breakdown.subthreshold == pytest.approx(device.off_current(), rel=1e-6)


class TestBiasing:
    def test_on_nmos_has_no_subthreshold_but_gate_leaks(self, library):
        device = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        breakdown = leakage_from_node_voltages(device, 1.0, 0.0, 0.0)
        assert breakdown.subthreshold == 0.0
        assert breakdown.gate > 0.0

    def test_off_nmos_with_full_vds_leaks(self, library):
        device = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        breakdown = leakage_from_node_voltages(device, 0.0, 1.0, 0.0)
        assert breakdown.subthreshold > 0

    def test_off_device_with_equal_terminals_has_no_subthreshold(self, library):
        device = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        breakdown = leakage_from_node_voltages(device, 0.0, 0.0, 0.0)
        assert breakdown.subthreshold == 0.0
        assert breakdown.gate == 0.0

    def test_pmos_off_when_gate_high(self, library):
        device = library.make_transistor(Polarity.PMOS, VtFlavor.NOMINAL, 1e-6)
        off = leakage_from_node_voltages(device, 1.0, 0.0, 1.0)
        on = leakage_from_node_voltages(device, 0.0, 0.0, 1.0)
        assert off.subthreshold > 0
        assert on.subthreshold == 0.0

    def test_high_vt_off_device_leaks_less(self, library):
        nominal = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        high = library.make_transistor(Polarity.NMOS, VtFlavor.HIGH, 1e-6)
        assert leakage_from_node_voltages(high, 0.0, 1.0, 0.0).subthreshold < \
            leakage_from_node_voltages(nominal, 0.0, 1.0, 0.0).subthreshold

    def test_voltage_outside_rails_rejected(self, library):
        device = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        with pytest.raises(CircuitError):
            leakage_from_node_voltages(device, 2.0, 0.0, 0.0)


class TestGates:
    def test_inverter_leakage_depends_on_input_state(self, library):
        inverter = Inverter(library, 1e-6, 2e-6)
        high = inverter.leakage(True).total
        low = inverter.leakage(False).total
        assert high > 0 and low > 0
        assert high != pytest.approx(low)

    def test_inverter_average_leakage_between_extremes(self, library):
        inverter = Inverter(library, 1e-6, 2e-6)
        high, low = inverter.leakage(True), inverter.leakage(False)
        states = AffineLeakage(LeakageBreakdown.zero(), high, low)
        average = states.mixed_at(states, 1.0, 0.5).total
        assert min(high.total, low.total) < average < max(high.total, low.total)
        assert average == pytest.approx(0.5 * (high.total + low.total))

    def test_asymmetric_vt_inverter_leaks_less_in_matching_state(self, library):
        symmetric = Inverter(library, 1e-6, 2e-6)
        asymmetric = Inverter(library, 1e-6, 2e-6,
                              nmos_flavor=VtFlavor.HIGH, pmos_flavor=VtFlavor.NOMINAL)
        # With the input low the NMOS is the leaking device.
        assert asymmetric.leakage(False).total < symmetric.leakage(False).total

    def test_inverter_resistances_positive_and_ordered(self, library):
        inverter = Inverter(library, 1e-6, 2e-6)
        assert inverter.pull_down_resistance() > 0
        assert inverter.pull_up_resistance() > 0

    def test_pass_transistor_off_leakage_depends_on_terminal_difference(self, library):
        switch = PassTransistorSwitch(library, 1.4e-6)
        different = switch.leakage(False, 1.0, 0.0).total
        same = switch.leakage(False, 0.0, 0.0).total
        assert different > same

    def test_pass_transistor_on_resistance_positive(self, library):
        switch = PassTransistorSwitch(library, 1.4e-6)
        assert switch.on_resistance() > 0

    def test_sleep_transistor_gate_leaks_when_asserted(self, library):
        sleep = SleepTransistor(library, 1e-6)
        asleep = sleep.leakage(True, 0.0)
        awake_high_node = sleep.leakage(False, 1.0)
        assert asleep.gate > 0
        assert awake_high_node.subthreshold > 0

    def test_precharge_leaks_when_off_and_node_low(self, library):
        precharge = PrechargeTransistor(library, 0.8e-6)
        off_low = precharge.leakage(False, 0.0)
        off_high = precharge.leakage(False, 1.0)
        assert off_low.subthreshold > off_high.subthreshold

    def test_keeper_high_vt_is_weaker_and_less_leaky(self, library):
        nominal = Keeper(library, 0.55e-6, flavor=VtFlavor.NOMINAL)
        high = Keeper(library, 0.55e-6, flavor=VtFlavor.HIGH)
        assert high.opposing_current() < nominal.opposing_current()
        assert high.leakage(False).subthreshold < nominal.leakage(False).subthreshold


class TestDeviceStatistics:
    def test_counts_by_flavor_and_role(self, library):
        inverter = Inverter(library, 1e-6, 2e-6)
        switch = PassTransistorSwitch(library, 1.4e-6, flavor=VtFlavor.HIGH)
        stats = DeviceStatistics.of_inventory([
            (inverter.pmos, DeviceRole.DRIVER, 1),
            (inverter.nmos, DeviceRole.DRIVER, 1),
            (switch.nmos, DeviceRole.PASS_TRANSISTOR, 3),
        ])
        assert stats.device_count == 5
        assert stats.count_by_role == {DeviceRole.DRIVER: 2, DeviceRole.PASS_TRANSISTOR: 3}
        assert stats.count_by_flavor == {VtFlavor.NOMINAL: 2, VtFlavor.HIGH: 3}
        assert stats.high_vt_fraction == 3 / 5

    def test_empty_inventory_has_no_high_vt_fraction(self):
        stats = DeviceStatistics.of_inventory([])
        assert stats.device_count == 0
        assert stats.high_vt_fraction == 0.0


class TestDynamicHelpers:
    def test_switching_energy_cv2(self):
        assert switching_energy(100e-15, 1.0) == pytest.approx(100e-15)

    def test_contention_energy(self):
        assert contention_energy(1e-3, 50e-12, 1.0) == pytest.approx(50e-15)

    def test_negative_capacitance_rejected(self):
        with pytest.raises(PowerError):
            switching_energy(-1e-15, 1.0)

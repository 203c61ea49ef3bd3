"""Tests for the circuit substrate: leakage accounting, biasing, gates,
netlists, RC trees, the transient solver and dynamic-energy helpers."""

from __future__ import annotations

import pytest

from repro.circuit import (
    GROUND_NET,
    SUPPLY_NET,
    DeviceRole,
    Inverter,
    Keeper,
    LeakageBreakdown,
    Netlist,
    PassTransistorSwitch,
    PrechargeTransistor,
    RCTransientSolver,
    RCTree,
    SleepTransistor,
    contention_energy,
    leakage_from_node_voltages,
    switching_energy,
)
from repro.circuit.devices import DeviceInstance
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

    def test_gate_devices_emit_netlist_instances(self, library):
        inverter = Inverter(library, 1e-6, 2e-6)
        devices = inverter.devices("in", "out", "u0")
        assert len(devices) == 2
        assert {device.source for device in devices} == {SUPPLY_NET, GROUND_NET}


class TestNetlist:
    def _simple_netlist(self, library):
        netlist = Netlist("test")
        inverter = Inverter(library, 1e-6, 2e-6)
        for device in inverter.devices("a", "b", "u0"):
            netlist.add_device(device)
        switch = PassTransistorSwitch(library, 1.4e-6)
        for device in switch.devices("grant", "b", "c", "u1"):
            netlist.add_device(device)
        return netlist

    def test_device_and_net_bookkeeping(self, library):
        netlist = self._simple_netlist(library)
        assert len(netlist) == 3
        assert {"a", "b", "c", "grant", SUPPLY_NET, GROUND_NET} <= netlist.nets

    def test_duplicate_device_name_rejected(self, library):
        netlist = self._simple_netlist(library)
        duplicate = netlist.devices[0]
        with pytest.raises(CircuitError):
            netlist.add_device(duplicate)

    def test_devices_on_net_and_fan_in(self, library):
        netlist = self._simple_netlist(library)
        assert netlist.fan_in("b") == 3  # inverter NMOS+PMOS drains plus pass terminal

    def test_channel_graph_reaches_rails(self, library):
        netlist = self._simple_netlist(library)
        assert netlist.net_is_drivable("b")
        assert netlist.net_is_drivable("c")

    def test_statistics_counts_by_flavor_and_role(self, library):
        netlist = self._simple_netlist(library)
        stats = netlist.statistics()
        assert stats.device_count == 3
        assert stats.count_by_role[DeviceRole.DRIVER] == 2
        assert stats.count_by_role[DeviceRole.PASS_TRANSISTOR] == 1
        assert stats.high_vt_fraction == 0.0

    def test_unknown_device_lookup_raises(self, library):
        netlist = self._simple_netlist(library)
        with pytest.raises(CircuitError):
            netlist.device("missing")

    def test_device_instance_validation(self, library):
        mosfet = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1e-6)
        with pytest.raises(CircuitError):
            DeviceInstance("", mosfet, "g", "d", "s")
        with pytest.raises(CircuitError):
            DeviceInstance("m1", mosfet, "g", "", "s")


class TestRcTree:
    def test_single_rc_elmore(self):
        tree = RCTree("drv")
        tree.add_node("out", "drv", resistance=1000.0, capacitance=1e-15)
        assert tree.elmore_delay("out") == pytest.approx(1000.0 * 1e-15)

    def test_driver_resistance_sees_total_capacitance(self):
        tree = RCTree("drv")
        tree.add_node("a", "drv", 100.0, 1e-15)
        tree.add_node("b", "a", 100.0, 1e-15)
        delay = tree.elmore_delay_from_driver("b", driver_resistance=1000.0)
        expected = 1000.0 * 2e-15 + 100.0 * 2e-15 + 100.0 * 1e-15
        assert delay == pytest.approx(expected)

    def test_wire_ladder_approaches_distributed_limit(self, library):
        # Elmore of a distributed RC line is R*C/2; a 5-section ladder should
        # land between the lumped (R*C) and distributed (R*C/2) values.
        resistance, capacitance = 1000.0, 100e-15
        tree = RCTree("drv")
        tree.add_wire("drv", "out", resistance, capacitance, segments=5)
        delay = tree.elmore_delay("out")
        assert 0.5 * resistance * capacitance < delay < resistance * capacitance
        assert delay == pytest.approx(0.6 * resistance * capacitance, rel=0.01)

    def test_downstream_capacitance(self):
        tree = RCTree("drv")
        tree.add_node("a", "drv", 1.0, 1e-15)
        tree.add_node("b", "a", 1.0, 2e-15)
        tree.add_node("c", "a", 1.0, 3e-15)
        assert tree.downstream_capacitance("a") == pytest.approx(6e-15)
        assert tree.total_capacitance() == pytest.approx(6e-15)

    def test_duplicate_and_missing_nodes_rejected(self):
        tree = RCTree("drv")
        tree.add_node("a", "drv", 1.0, 1e-15)
        with pytest.raises(CircuitError):
            tree.add_node("a", "drv", 1.0, 0.0)
        with pytest.raises(CircuitError):
            tree.add_node("b", "missing", 1.0, 0.0)
        with pytest.raises(CircuitError):
            tree.elmore_delay("missing")


class TestTransientSolver:
    def test_transient_matches_elmore_within_tolerance(self, library):
        tree = RCTree("drv")
        tree.add_wire("drv", "mid", 500.0, 30e-15, segments=5)
        tree.add_node("out", "mid", 200.0, 10e-15)
        elmore = tree.step_delay_from_driver("out", driver_resistance=800.0)
        solver = RCTransientSolver(tree, driver_resistance=800.0, supply_voltage=1.0)
        transient = solver.fifty_percent_delay("out")
        assert transient == pytest.approx(elmore, rel=0.25)

    def test_falling_step_symmetric_with_rising(self):
        tree = RCTree("drv")
        tree.add_node("out", "drv", 1000.0, 10e-15)
        solver = RCTransientSolver(tree, 500.0, 1.0)
        rising = solver.fifty_percent_delay("out", rising=True)
        falling = solver.fifty_percent_delay("out", rising=False)
        assert rising == pytest.approx(falling, rel=1e-6)

    def test_waveform_settles_to_supply(self):
        tree = RCTree("drv")
        tree.add_node("out", "drv", 1000.0, 10e-15)
        solver = RCTransientSolver(tree, 500.0, 1.0)
        result = solver.rising_step(duration=1e-9)
        assert result.voltage_of("out")[-1] == pytest.approx(1.0, abs=0.01)

    def test_crossing_time_error_when_window_too_short(self):
        tree = RCTree("drv")
        tree.add_node("out", "drv", 1e6, 1e-12)  # very slow node
        solver = RCTransientSolver(tree, 1e6, 1.0)
        result = solver.rising_step(duration=1e-12)
        with pytest.raises(CircuitError):
            result.crossing_time("out", 0.5)


class TestDynamicHelpers:
    def test_switching_energy_cv2(self):
        assert switching_energy(100e-15, 1.0) == pytest.approx(100e-15)

    def test_contention_energy(self):
        assert contention_energy(1e-3, 50e-12, 1.0) == pytest.approx(50e-15)

    def test_negative_capacitance_rejected(self):
        with pytest.raises(PowerError):
            switching_energy(-1e-15, 1.0)

"""Tests for the engineering-unit helpers."""

from __future__ import annotations

import math

import pytest

from repro import units


class TestThermalVoltage:
    def test_room_temperature_value(self):
        assert units.thermal_voltage(300.0) == pytest.approx(25.85e-3, rel=1e-3)

    def test_scales_linearly_with_temperature(self):
        assert units.thermal_voltage(600.0) == pytest.approx(2 * units.thermal_voltage(300.0))

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(ValueError):
            units.thermal_voltage(0.0)


class TestCelsiusToKelvin:
    def test_zero_celsius(self):
        assert units.celsius_to_kelvin(0.0) == pytest.approx(273.15)

    def test_typical_junction_temperature(self):
        assert units.celsius_to_kelvin(110.0) == pytest.approx(383.15)

    def test_rejects_below_absolute_zero(self):
        with pytest.raises(ValueError):
            units.celsius_to_kelvin(-300.0)


class TestConversions:
    def test_seconds_to_picoseconds_round_trip(self):
        assert units.seconds_to_picoseconds(61.4e-12) == pytest.approx(61.4)

    def test_watts_to_milliwatts(self):
        assert units.watts_to_milliwatts(0.18281) == pytest.approx(182.81)


class TestConstants:
    def test_prefix_ladder_is_monotonic(self):
        assert units.FEMTO < units.PICO < units.NANO < units.MICRO < units.MILLI < 1 < units.KILO

    def test_boltzmann_over_charge_is_thermal_voltage(self):
        assert units.BOLTZMANN / units.ELEMENTARY_CHARGE * 300 == pytest.approx(
            units.thermal_voltage(300.0)
        )

    def test_ln2_turns_an_rc_product_into_a_half_swing_delay(self):
        assert units.LN2 == math.log(2.0)
        assert math.exp(-units.LN2) == pytest.approx(0.5, rel=1e-15)

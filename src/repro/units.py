"""Engineering-unit helpers.

The library uses plain SI floats internally (seconds, metres, volts,
amperes, farads, ohms, watts, joules).  This module provides:

* multiplicative constants (``NANO``, ``PICO``, ...) so call sites read
  naturally (``10 * PICO`` farads, ``61.4 * PICO`` seconds);
* conversion helpers for the units the paper reports results in
  (picoseconds, milliwatts).

Keeping everything in SI avoids an entire class of unit bugs; the only
places non-SI numbers appear are the formatting boundary (reports,
tables) and the technology data tables whose sources quote nm / µm
values.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# SI prefixes (multiply a value expressed in the prefixed unit to obtain SI).
# ---------------------------------------------------------------------------
YOCTO = 1e-24
ZEPTO = 1e-21
ATTO = 1e-18
FEMTO = 1e-15
PICO = 1e-12
NANO = 1e-9
MICRO = 1e-6
MILLI = 1e-3
CENTI = 1e-2
KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12

# Physical constants used by the device models.
BOLTZMANN = 1.380649e-23  # J / K
ELEMENTARY_CHARGE = 1.602176634e-19  # C
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F / m
ZERO_CELSIUS_IN_KELVIN = 273.15

#: ln(2): converts an Elmore (first-moment) delay into a 50 % step delay.
LN2 = math.log(2.0)


def thermal_voltage(temperature_kelvin: float) -> float:
    """Return ``kT/q`` in volts for the given absolute temperature.

    At 300 K this is approximately 25.85 mV; the sub-threshold leakage
    model uses it as the exponential slope denominator.
    """
    if temperature_kelvin <= 0:
        raise ValueError(f"temperature must be positive, got {temperature_kelvin} K")
    return BOLTZMANN * temperature_kelvin / ELEMENTARY_CHARGE


def celsius_to_kelvin(temperature_celsius: float) -> float:
    """Convert a Celsius temperature to Kelvin."""
    kelvin = temperature_celsius + ZERO_CELSIUS_IN_KELVIN
    if kelvin <= 0:
        raise ValueError(f"temperature below absolute zero: {temperature_celsius} C")
    return kelvin


def seconds_to_picoseconds(value_seconds: float) -> float:
    """Convert seconds to picoseconds (the unit Table 1 reports delays in)."""
    return value_seconds / PICO


def watts_to_milliwatts(value_watts: float) -> float:
    """Convert watts to milliwatts (the unit Table 1 reports power in)."""
    return value_watts / MILLI

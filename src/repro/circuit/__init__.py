"""Circuit substrate: gates, device statistics and state-dependent leakage.

See ``docs/architecture.md``.  This layer replaces the paper's SPICE
decks with analytical models of the same circuits.
"""

from .biasing import (
    OFF_OVERLAP_GATE_FRACTION,
    KernelStats,
    LeakageKernel,
    kernel_for,
    kernel_totals,
    leakage_from_node_voltages,
    reset_kernel_totals,
)
from .devices import DeviceRole, DeviceStatistics
from .dynamic import contention_energy, switching_energy
from .gates import (
    Inverter,
    Keeper,
    PassTransistorSwitch,
    PrechargeTransistor,
    SleepTransistor,
)
from .leakage import LeakageAccumulator, LeakageBreakdown

__all__ = [
    "DeviceRole",
    "DeviceStatistics",
    "Inverter",
    "Keeper",
    "KernelStats",
    "LeakageAccumulator",
    "LeakageBreakdown",
    "LeakageKernel",
    "OFF_OVERLAP_GATE_FRACTION",
    "PassTransistorSwitch",
    "PrechargeTransistor",
    "SleepTransistor",
    "contention_energy",
    "kernel_for",
    "kernel_totals",
    "leakage_from_node_voltages",
    "reset_kernel_totals",
    "switching_energy",
]

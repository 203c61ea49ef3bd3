"""Circuit substrate: netlists, gates, RC delay and state-dependent leakage.

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
from .devices import DeviceInstance, DeviceRole
from .dynamic import contention_energy, switching_energy
from .gates import (
    Inverter,
    Keeper,
    PassTransistorSwitch,
    PrechargeTransistor,
    SleepTransistor,
)
from .leakage import LeakageAccumulator, LeakageBreakdown
from .netlist import GROUND_NET, SUPPLY_NET, Netlist, NetlistStatistics
from .rc_network import LN2, RCTree
from .transient import RCTransientSolver, TransientResult

__all__ = [
    "DeviceInstance",
    "DeviceRole",
    "GROUND_NET",
    "Inverter",
    "Keeper",
    "KernelStats",
    "LN2",
    "LeakageAccumulator",
    "LeakageBreakdown",
    "LeakageKernel",
    "Netlist",
    "NetlistStatistics",
    "OFF_OVERLAP_GATE_FRACTION",
    "PassTransistorSwitch",
    "PrechargeTransistor",
    "RCTransientSolver",
    "RCTree",
    "SUPPLY_NET",
    "SleepTransistor",
    "TransientResult",
    "contention_energy",
    "kernel_for",
    "kernel_totals",
    "leakage_from_node_voltages",
    "reset_kernel_totals",
    "switching_energy",
]

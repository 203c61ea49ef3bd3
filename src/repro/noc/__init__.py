"""NoC substrate: routers, mesh, traffic, simulation, power gating and power roll-up.

See ``docs/architecture.md``.  The simulator exists to ground the paper's
standby-mode claims in measured idle-interval distributions.
"""

from .arbiter import RoundRobinArbiter
from .buffer import FlitBuffer
from .flit import Flit, FlitType, Packet
from .network import NetworkSimulator, SimulationResult
from .noc_power import NetworkPowerReport, NocPowerConfig, NocPowerModel
from .power_gating import (
    GatingPolicy,
    GatingReport,
    evaluate_gating,
    evaluate_oracle_gating,
)
from .router import CrossbarMove, Router
from .routing import xy_route
from .stats import IdleIntervalTracker, LatencyStatistics
from .topology import Mesh, opposite_port
from .traffic import TrafficConfig, TrafficGenerator, TrafficPattern

__all__ = [
    "CrossbarMove",
    "Flit",
    "FlitBuffer",
    "FlitType",
    "GatingPolicy",
    "GatingReport",
    "IdleIntervalTracker",
    "LatencyStatistics",
    "Mesh",
    "NetworkPowerReport",
    "NetworkSimulator",
    "NocPowerConfig",
    "NocPowerModel",
    "Packet",
    "RoundRobinArbiter",
    "Router",
    "SimulationResult",
    "TrafficConfig",
    "TrafficGenerator",
    "TrafficPattern",
    "evaluate_gating",
    "evaluate_oracle_gating",
    "opposite_port",
    "xy_route",
]

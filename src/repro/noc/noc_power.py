"""Network-level power roll-up.

Combines one crossbar scheme's circuit-level figures with the activity a
simulation measured to estimate router and network power:

* **crossbar switching** — energy per traversal times measured traversals;
* **crossbar leakage** — busy ports leak at the active rate, idle ports
  at the idle rate, and (optionally) gated idle cycles at the standby
  rate, using the same gating evaluation as :mod:`repro.noc.power_gating`;
* **buffer leakage** — a Chen-&-Peh-style per-cell figure built from the
  technology library (reference [1] of the paper is the prior work that
  optimises this component; including it keeps the crossbar's share in
  honest proportion);
* **link switching** — per-flit energy of the inter-router wires with
  optimally repeated drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..circuit.dynamic import switching_energy
from ..crossbar.base import CrossbarScheme
from ..errors import NocError
from ..interconnect.repeater import optimal_repeaters
from ..interconnect.wire import Wire
from ..power.idle_time import analyse_minimum_idle_time
from ..technology.transistor import Polarity, VtFlavor
from .network import NetworkSimulator, SimulationResult
from .power_gating import GatingPolicy
from .topology import Mesh
from .traffic import TrafficConfig, TrafficPattern

__all__ = ["NocPowerConfig", "NetworkPowerReport", "NocPowerModel"]


@dataclass(frozen=True)
class NocPowerConfig:
    """Architecture and workload parameters of the network level.

    Beyond the power roll-up knobs, this carries the *simulated
    workload*: mesh shape, traffic pattern/rate/seed and the simulation
    length — so one config fully describes a network-level experiment
    (benchmarks build their meshes and traffic from these fields via
    :meth:`build_mesh` / :meth:`build_traffic` / :meth:`simulate`
    instead of hard-coding constants).  It is not part of
    :class:`~repro.core.config.ExperimentConfig`: the Table-1 records do
    not depend on it.
    ``traffic_pattern`` is the string value of a
    :class:`~repro.noc.traffic.TrafficPattern` so the config stays
    JSON-safe; hotspot traffic pins its hotspot to node ``(0, 0)``.
    """

    buffer_depth: int = 4
    link_length: float = 1.0e-3
    bit_cell_width: float = 0.3e-6
    static_probability: float = 0.5
    toggle_activity: float = 0.5
    gating_enabled: bool = True
    gating_policy: GatingPolicy = GatingPolicy()
    mesh_columns: int = 4
    mesh_rows: int = 4
    injection_rate: float = 0.1
    traffic_pattern: str = "uniform"
    traffic_seed: int = 1
    traffic_burst_on_fraction: float = 1.0
    traffic_burst_phase_length: int = 50
    simulation_cycles: int = 2000
    warmup_cycles: int = 200

    def __post_init__(self) -> None:
        if self.buffer_depth < 1:
            raise NocError("buffer depth must be at least 1")
        if self.link_length <= 0:
            raise NocError("link length must be positive")
        if self.bit_cell_width <= 0:
            raise NocError("bit cell width must be positive")
        if self.mesh_columns < 1 or self.mesh_rows < 1:
            raise NocError("mesh dimensions must be positive")
        patterns = [pattern.value for pattern in TrafficPattern]
        if self.traffic_pattern not in patterns:
            raise NocError(
                f"unknown traffic pattern {self.traffic_pattern!r}; "
                f"expected one of {patterns}"
            )
        if self.simulation_cycles < 1:
            raise NocError("simulation must run at least one cycle")
        if self.warmup_cycles < 0:
            raise NocError("warm-up cannot be negative")

    def build_mesh(self) -> "Mesh":
        """The ``mesh_columns x mesh_rows`` mesh this config describes."""
        return Mesh(self.mesh_columns, self.mesh_rows,
                    buffer_depth=self.buffer_depth)

    def build_traffic(self) -> TrafficConfig:
        """The traffic workload this config describes (validated by
        :class:`~repro.noc.traffic.TrafficConfig` itself)."""
        pattern = TrafficPattern(self.traffic_pattern)
        return TrafficConfig(
            injection_rate=self.injection_rate,
            pattern=pattern,
            hotspot_node=(0, 0) if pattern is TrafficPattern.HOTSPOT else None,
            burst_on_fraction=self.traffic_burst_on_fraction,
            burst_phase_length=self.traffic_burst_phase_length,
            seed=self.traffic_seed,
        )

    def simulate(self) -> SimulationResult:
        """Run the described workload on the described mesh."""
        return NetworkSimulator(self.build_mesh(), self.build_traffic()).run(
            cycles=self.simulation_cycles, warmup_cycles=self.warmup_cycles)


@dataclass(frozen=True)
class NetworkPowerReport:
    """Per-component network power (watts) for one simulated workload."""

    scheme: str
    crossbar_dynamic: float
    crossbar_leakage: float
    buffer_leakage: float
    link_dynamic: float
    gating_net_saving: float

    @property
    def total(self) -> float:
        """Total network power (watts)."""
        return self.crossbar_dynamic + self.crossbar_leakage + self.buffer_leakage + self.link_dynamic

    @property
    def crossbar_leakage_fraction(self) -> float:
        """Crossbar leakage as a fraction of the total."""
        if self.total == 0:
            return 0.0
        return self.crossbar_leakage / self.total


class NocPowerModel:
    """Estimates network power for one crossbar scheme and one simulation."""

    def __init__(self, scheme: CrossbarScheme, config: NocPowerConfig | None = None) -> None:
        self.scheme = scheme
        self.config = config if config is not None else NocPowerConfig()
        self.library = scheme.library

    # -- per-component building blocks ------------------------------------------------
    def crossbar_energy_per_traversal(self) -> float:
        """Switching energy of one flit crossing the crossbar (joules)."""
        per_cycle = self.scheme.dynamic_energy_per_cycle(
            self.config.toggle_activity, self.config.static_probability
        )
        return per_cycle / self.scheme.config.output_count

    @cached_property
    def _buffer_cell_leakage_power(self) -> float:
        """Leakage power of one buffer bit cell (watts), computed once.

        The library shares the sized devices (``make_transistor`` is
        memoised per width), so the unique cell bias point is evaluated
        once and every roll-up multiplies it by the cell count.
        """
        nmos = self.library.make_transistor(
            Polarity.NMOS, VtFlavor.NOMINAL, self.config.bit_cell_width
        )
        pmos = self.library.make_transistor(
            Polarity.PMOS, VtFlavor.NOMINAL, self.config.bit_cell_width
        )
        return (nmos.off_current() + pmos.off_current()) * self.library.supply_voltage

    def buffer_leakage_per_router(self) -> float:
        """Leakage power of one router's input buffers (watts).

        Each stored bit is modelled as a cell with one off NMOS and one
        off PMOS of ``bit_cell_width`` (the dominant leakage paths of an
        SRAM/latch cell), all nominal Vt — reference [1]'s techniques for
        reducing this component are outside this reproduction's scope.
        """
        cells = (
            self.scheme.config.port_count
            * self.config.buffer_depth
            * self.scheme.config.flit_width
        )
        return self._buffer_cell_leakage_power * cells

    def link_energy_per_flit(self) -> float:
        """Switching energy of one flit traversing one inter-router link (joules)."""
        wire = Wire.on_layer(self.library, self.config.link_length, "global")
        design = optimal_repeaters(self.library, wire)
        capacitance = wire.capacitance + design.total_repeater_capacitance
        per_bit = switching_energy(capacitance, self.library.supply_voltage)
        return 0.5 * self.config.toggle_activity * self.scheme.config.flit_width * per_bit

    # -- roll-up -----------------------------------------------------------------------
    def evaluate(self, result: SimulationResult) -> NetworkPowerReport:
        """Estimate network power for the workload captured in ``result``."""
        if result.cycles < 1:
            raise NocError("simulation result covers no cycles")
        frequency = self.library.clock_frequency
        period = self.library.clock_period
        simulated_time = result.cycles * period
        node_count = result.node_count

        crossbar_dynamic_energy = result.crossbar_traversals * self.crossbar_energy_per_traversal()
        crossbar_dynamic = crossbar_dynamic_energy / simulated_time

        # Leakage: apportion each router's crossbar between busy and idle time
        # using the measured per-port utilisation.
        active_power = self.scheme.active_leakage_power(self.config.static_probability)
        idle_power = self.scheme.idle_leakage(self.config.static_probability).power(
            self.scheme.supply_voltage
        )
        standby_power = self.scheme.standby_leakage_power()
        per_port_active = active_power / self.scheme.config.output_count
        per_port_idle = idle_power / self.scheme.config.output_count
        per_port_standby = standby_power / self.scheme.config.output_count

        leakage_energy = 0.0
        gating_saving_energy = 0.0
        idle_analysis = analyse_minimum_idle_time(
            self.scheme, self.config.static_probability, frequency
        ) if self.scheme.has_sleep_mode else None
        per_port_transition = (
            idle_analysis.transition_energy / self.scheme.config.output_count
            if idle_analysis is not None
            else 0.0
        )
        for tracker in result.output_trackers.values():
            busy = tracker.busy_cycles
            idle = tracker.idle_cycles
            leakage_energy += busy * period * per_port_active
            if not (self.config.gating_enabled and self.scheme.has_sleep_mode):
                leakage_energy += idle * period * per_port_idle
                continue
            intervals = tracker.idle_intervals()
            gated = 0
            transitions = 0
            for interval in intervals:
                sleepable = interval - self.config.gating_policy.idle_detect_cycles \
                    - self.config.gating_policy.wakeup_cycles
                if sleepable > 0:
                    gated += sleepable
                    transitions += 1
            ungated_energy = idle * period * per_port_idle
            gated_energy = (
                (idle - gated) * period * per_port_idle
                + gated * period * per_port_standby
                + transitions * per_port_transition
            )
            leakage_energy += min(gated_energy, ungated_energy)
            gating_saving_energy += max(ungated_energy - gated_energy, 0.0)
        crossbar_leakage = leakage_energy / simulated_time

        buffer_leakage = self.buffer_leakage_per_router() * node_count

        # Every crossbar traversal towards a non-local port is followed by a
        # link traversal; approximate the link count by the non-PE share of
        # traversals.
        non_local_fraction = 0.8
        link_energy = result.crossbar_traversals * non_local_fraction * self.link_energy_per_flit()
        link_dynamic = link_energy / simulated_time

        return NetworkPowerReport(
            scheme=self.scheme.name,
            crossbar_dynamic=crossbar_dynamic,
            crossbar_leakage=crossbar_leakage,
            buffer_leakage=buffer_leakage,
            link_dynamic=link_dynamic,
            gating_net_saving=gating_saving_energy / simulated_time,
        )

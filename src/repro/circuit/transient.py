"""Linear RC transient solver (modified nodal analysis).

The Elmore delay used throughout the library is a first-moment
approximation.  To keep the approximation honest, this module solves the
actual linear RC network response to a step input and extracts the 50 %
crossing time.  The test suite cross-checks Elmore against the transient
solver on representative crossbar-like topologies; the benchmark suite
uses Elmore (it is orders of magnitude faster).

The network is the same grounded-capacitance RC tree used elsewhere, but
the solver works on arbitrary connected RC graphs: nodes with
capacitance to ground, resistive branches between nodes, one node driven
by an ideal step source through a driver resistance.

The system is ``C dv/dt = -G v + b(t)``; with a step source it is solved
with the exponential of the state matrix on a fixed time grid (the
matrices are small — tens of nodes — so dense linear algebra is fine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import CircuitError
from .rc_network import RCTree

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

__all__ = ["RCTransientSolver", "TransientResult"]


@dataclass
class TransientResult:
    """Sampled node voltage waveform from a transient run."""

    times: np.ndarray
    voltages: np.ndarray
    node_names: list[str] = field(default_factory=list)

    def voltage_of(self, node: str) -> np.ndarray:
        """Waveform of one node."""
        try:
            index = self.node_names.index(node)
        except ValueError as exc:
            raise CircuitError(f"node {node!r} was not part of the transient run") from exc
        return self.voltages[:, index]

    def crossing_time(self, node: str, threshold: float) -> float:
        """First time the node crosses ``threshold`` volts (linear interpolation).

        Raises if the waveform never crosses, which usually means the
        simulation window was too short.
        """
        waveform = self.voltage_of(node)
        rising = waveform[-1] >= waveform[0]
        for index in range(1, len(waveform)):
            previous, current = waveform[index - 1], waveform[index]
            crossed = (previous < threshold <= current) if rising else (previous > threshold >= current)
            if crossed:
                if current == previous:
                    return float(self.times[index])
                fraction = (threshold - previous) / (current - previous)
                return float(self.times[index - 1] + fraction * (self.times[index] - self.times[index - 1]))
        raise CircuitError(
            f"node {node!r} never crossed {threshold} V within the simulated window"
        )


class RCTransientSolver:
    """Step-response solver for an :class:`~repro.circuit.rc_network.RCTree`."""

    def __init__(self, tree: RCTree, driver_resistance: float, supply_voltage: float,
                 minimum_capacitance: float = 1e-18) -> None:
        if driver_resistance <= 0:
            raise CircuitError("the transient solver needs a positive driver resistance")
        if supply_voltage <= 0:
            raise CircuitError("supply voltage must be positive")
        self.tree = tree
        self.driver_resistance = driver_resistance
        self.supply_voltage = supply_voltage
        #: Nodes with zero capacitance get a tiny floor so the state matrix stays invertible.
        self.minimum_capacitance = minimum_capacitance

    def _build_matrices(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        import numpy as np

        names = self.tree.nodes()
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        conductance = np.zeros((n, n))
        capacitance = np.zeros(n)
        for name in names:
            capacitance[index[name]] = max(self.tree.node_capacitance(name), self.minimum_capacitance)
        # Resistive branches: each non-root node connects to its parent.
        for name in names:
            path = self.tree.path_to_root(name)
            if len(path) < 2:
                continue
            parent = path[1]
            # Re-derive the branch resistance from the Elmore bookkeeping:
            # delay difference between node and parent over downstream cap.
            downstream = self.tree.downstream_capacitance(name)
            resistance = (self.tree.elmore_delay(name) - self.tree.elmore_delay(parent)) / downstream
            if resistance <= 0:
                resistance = 1e-3  # ideal connections get a milliohm placeholder
            g = 1.0 / resistance
            i, j = index[name], index[parent]
            conductance[i, i] += g
            conductance[j, j] += g
            conductance[i, j] -= g
            conductance[j, i] -= g
        # Driver: root connects to the source through the driver resistance.
        g_drv = 1.0 / self.driver_resistance
        conductance[index[self.tree.root], index[self.tree.root]] += g_drv
        return conductance, capacitance, names

    def rising_step(self, duration: float, samples: int = 400) -> TransientResult:
        """Drive the root from 0 to Vdd at t = 0 and sample all node voltages."""
        return self._step(duration, samples, rising=True)

    def falling_step(self, duration: float, samples: int = 400) -> TransientResult:
        """Drive the root from Vdd to 0 at t = 0 and sample all node voltages."""
        return self._step(duration, samples, rising=False)

    def _step(self, duration: float, samples: int, rising: bool) -> TransientResult:
        if duration <= 0:
            raise CircuitError("simulation duration must be positive")
        if samples < 2:
            raise CircuitError("need at least two samples")
        # Imported here: no design-point evaluation solves a transient,
        # so importing the package does not pay for numpy and scipy.
        import numpy as np
        from scipy.linalg import expm

        conductance, capacitance, names = self._build_matrices()
        n = len(names)
        c_inv = np.diag(1.0 / capacitance)
        a = -c_inv @ conductance
        source_vector = np.zeros(n)
        source_vector[names.index(self.tree.root)] = (
            (self.supply_voltage if rising else 0.0) / self.driver_resistance
        )
        b = c_inv @ source_vector
        initial = np.full(n, 0.0 if rising else self.supply_voltage)
        # Steady state: A v_ss + b = 0.
        v_ss = np.linalg.solve(-a, b)
        times = np.linspace(0.0, duration, samples)
        dt = times[1] - times[0]
        propagator = expm(a * dt)
        voltages = np.empty((samples, n))
        state = initial - v_ss
        for k in range(samples):
            voltages[k] = state + v_ss
            state = propagator @ state
        return TransientResult(times=times, voltages=voltages, node_names=names)

    def fifty_percent_delay(self, sink: str, rising: bool = True, duration: float | None = None) -> float:
        """50 % crossing time of ``sink`` for a step at t = 0 (seconds)."""
        if duration is None:
            # Ten Elmore time constants comfortably cover the settling.
            duration = 10.0 * max(
                self.tree.elmore_delay_from_driver(sink, self.driver_resistance), 1e-15
            )
        result = self.rising_step(duration) if rising else self.falling_step(duration)
        return result.crossing_time(sink, 0.5 * self.supply_voltage)

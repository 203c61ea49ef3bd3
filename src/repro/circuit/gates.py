"""Gate-level building blocks used by the crossbar generators.

Each class combines the small number of transistors making up one
circuit idiom from the paper's Figures 1-3 — CMOS inverters for the
wire drivers (I1, I2), NMOS pass transistors for the crossbar switch
points (N1-N4), the shared sleep transistor (N5), the pre-charge PMOS
(P1 in Fig. 2), and the feedback keeper (P1 in Fig. 1) — and exposes the
two things the analysis layers need from it:

* **Electrical figures** for delay: input capacitance, output (diffusion)
  capacitance, pull-up / pull-down effective resistance.
* **Leakage** as a function of the logic state of its terminals, via
  the library's memoised :class:`~repro.circuit.biasing.LeakageKernel`
  (same numbers as :func:`repro.circuit.biasing.leakage_from_node_voltages`,
  each unique bias point evaluated once).

The sized devices themselves are public attributes (``nmos`` /
``pmos``); a scheme's device inventory reads them directly.

Widths are always explicit constructor arguments; the schemes own the
sizing decisions.
"""

from __future__ import annotations

from ..technology.library import TechnologyLibrary
from ..technology.transistor import Mosfet, Polarity, VtFlavor
from .biasing import kernel_for
from .leakage import LeakageBreakdown

__all__ = [
    "Inverter",
    "PassTransistorSwitch",
    "SleepTransistor",
    "PrechargeTransistor",
    "Keeper",
]


def _level(value: bool, vdd: float) -> float:
    """Logic value to rail voltage."""
    return vdd if value else 0.0


class Inverter:
    """A static CMOS inverter with independently chosen Vt per device.

    The asymmetric-Vt driver inverters of the DPC/SDPC schemes are
    expressed by passing different flavors for the NMOS and PMOS.
    """

    def __init__(
        self,
        library: TechnologyLibrary,
        nmos_width: float,
        pmos_width: float,
        nmos_flavor: VtFlavor = VtFlavor.NOMINAL,
        pmos_flavor: VtFlavor = VtFlavor.NOMINAL,
    ) -> None:
        self.library = library
        self._kernel = kernel_for(library)
        self.nmos: Mosfet = library.make_transistor(Polarity.NMOS, nmos_flavor, nmos_width)
        self.pmos: Mosfet = library.make_transistor(Polarity.PMOS, pmos_flavor, pmos_width)

    # -- electrical ------------------------------------------------------------
    def input_capacitance(self) -> float:
        """Capacitance presented to whatever drives this inverter (farads)."""
        return self.nmos.gate_capacitance() + self.pmos.gate_capacitance()

    def output_capacitance(self) -> float:
        """Self-loading diffusion capacitance on the output (farads)."""
        return self.nmos.diffusion_capacitance() + self.pmos.diffusion_capacitance()

    def pull_down_resistance(self) -> float:
        """Effective resistance when the output falls (ohms)."""
        return self.nmos.effective_resistance()

    def pull_up_resistance(self) -> float:
        """Effective resistance when the output rises (ohms)."""
        return self.pmos.effective_resistance()

    # -- leakage -----------------------------------------------------------------
    def leakage(self, input_is_high: bool) -> LeakageBreakdown:
        """Leakage with the input parked at a rail."""
        vdd = self.library.supply_voltage
        vin = _level(input_is_high, vdd)
        vout = _level(not input_is_high, vdd)
        nmos = self._kernel.evaluate(self.nmos, vin, vout, 0.0)
        pmos = self._kernel.evaluate(self.pmos, vin, vout, vdd)
        return nmos + pmos


class PassTransistorSwitch:
    """An NMOS pass transistor: one crosspoint of the matrix crossbar.

    The gate is driven by the arbiter's grant signal; drain and source
    connect the input wire to the shared output (merge) node.
    """

    def __init__(self, library: TechnologyLibrary, width: float,
                 flavor: VtFlavor = VtFlavor.NOMINAL) -> None:
        self.library = library
        self._kernel = kernel_for(library)
        self.nmos: Mosfet = library.make_transistor(Polarity.NMOS, flavor, width)

    def on_resistance(self) -> float:
        """Channel resistance when granted (ohms), with pass-gate degradation."""
        return self.nmos.pass_resistance()

    def grant_capacitance(self) -> float:
        """Capacitance presented to the grant (gate) line."""
        return self.nmos.gate_capacitance()

    def terminal_capacitance(self) -> float:
        """Diffusion capacitance added to each of the two connected nets."""
        return self.nmos.diffusion_capacitance()

    def leakage(self, granted: bool, input_voltage: float, output_voltage: float) -> LeakageBreakdown:
        """Leakage for the given grant state and terminal voltages."""
        vdd = self.library.supply_voltage
        gate = _level(granted, vdd)
        return self._kernel.evaluate(self.nmos, gate, input_voltage, output_voltage)


class SleepTransistor:
    """The N5 device of Figures 1-3: an NMOS that forces the merge node to GND.

    When the router has been idle long enough, ``sleep`` is raised and
    the merge node (node A) is pulled to ground, collapsing the voltage
    across the pass-transistor gate oxides and parking the driver in a
    known state.
    """

    def __init__(self, library: TechnologyLibrary, width: float,
                 flavor: VtFlavor = VtFlavor.HIGH) -> None:
        self.library = library
        self._kernel = kernel_for(library)
        self.nmos: Mosfet = library.make_transistor(Polarity.NMOS, flavor, width)

    def on_resistance(self) -> float:
        """Resistance with which the merge node is pulled down in standby."""
        return self.nmos.effective_resistance()

    def control_capacitance(self) -> float:
        """Capacitance the sleep-control driver must switch."""
        return self.nmos.gate_capacitance()

    def node_capacitance(self) -> float:
        """Diffusion capacitance it adds to the merge node."""
        return self.nmos.diffusion_capacitance()

    def leakage(self, sleeping: bool, node_voltage: float) -> LeakageBreakdown:
        """Leakage of the sleep device itself."""
        vdd = self.library.supply_voltage
        gate = _level(sleeping, vdd)
        return self._kernel.evaluate(self.nmos, gate, node_voltage, 0.0)


class PrechargeTransistor:
    """The clocked PMOS (P1 of Fig. 2) that pre-charges the merge node to Vdd.

    Active-low control: the device conducts while ``pre`` is low (the
    negative clock phase).  When the arbiter has no requests, or in sleep
    mode, ``pre`` is held high to stop the pre-charge activity.
    """

    def __init__(self, library: TechnologyLibrary, width: float,
                 flavor: VtFlavor = VtFlavor.HIGH) -> None:
        self.library = library
        self._kernel = kernel_for(library)
        self.pmos: Mosfet = library.make_transistor(Polarity.PMOS, flavor, width)

    def on_resistance(self) -> float:
        """Resistance through which the node is pre-charged."""
        return self.pmos.effective_resistance()

    def control_capacitance(self) -> float:
        """Clock load added by the pre-charge gate."""
        return self.pmos.gate_capacitance()

    def node_capacitance(self) -> float:
        """Diffusion capacitance it adds to the pre-charged node."""
        return self.pmos.diffusion_capacitance()

    def leakage(self, precharging: bool, node_voltage: float) -> LeakageBreakdown:
        """Leakage of the pre-charge device for the given phase and node value."""
        vdd = self.library.supply_voltage
        gate = _level(not precharging, vdd)  # active-low control
        return self._kernel.evaluate(self.pmos, gate, node_voltage, vdd)


class Keeper:
    """The feedback level-restoring PMOS (P1 of Fig. 1).

    Its gate is driven by the first driver inverter's output, so it turns
    on whenever the merge node is high, restoring the ``Vdd - Vt`` level
    the NMOS pass transistor leaves behind.  The cost is contention: any
    high-to-low transition of the merge node must overpower it, burning
    crowbar current and slowing the edge.  Making the keeper high-Vt (the
    DFC/SDFC choice) weakens it, reducing both penalties at the price of
    a slower level restore.
    """

    def __init__(self, library: TechnologyLibrary, width: float,
                 flavor: VtFlavor = VtFlavor.NOMINAL) -> None:
        self.library = library
        self._kernel = kernel_for(library)
        self.pmos: Mosfet = library.make_transistor(Polarity.PMOS, flavor, width)

    def opposing_current(self) -> float:
        """Current (amperes) the keeper sources against a falling merge node."""
        return self.pmos.saturation_current()

    def node_capacitance(self) -> float:
        """Diffusion capacitance added to the merge node."""
        return self.pmos.diffusion_capacitance()

    def feedback_capacitance(self) -> float:
        """Gate capacitance added to the feedback (driver-internal) node."""
        return self.pmos.gate_capacitance()

    def leakage(self, node_is_high: bool) -> LeakageBreakdown:
        """Leakage of the keeper for the given merge-node value.

        When the node is high the keeper is on (gate low) — it gate-leaks
        but cannot sub-threshold leak.  When the node is low the keeper
        is off with the full supply across it.
        """
        vdd = self.library.supply_voltage
        node = _level(node_is_high, vdd)
        gate = _level(not node_is_high, vdd)  # feedback inverts the node
        return self._kernel.evaluate(self.pmos, gate, node, vdd)

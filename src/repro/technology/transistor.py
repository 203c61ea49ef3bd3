"""MOSFET electrical model with dual-Vt support.

Every transistor instantiated by the crossbar generators references one
of the parameter sets defined here (NMOS/PMOS x nominal/high/low Vt).
The model provides exactly the quantities the reproduction needs:

* off-state sub-threshold current (leakage),
* gate tunnelling current (leakage),
* junction leakage,
* saturation drive current and an effective switching resistance
  (delay), using the alpha-power law,
* gate and diffusion capacitances (delay and dynamic energy).

The default 45 nm-class parameter values are representative of published
predictive models: a ~100 nA/um off-current for nominal-Vt NMOS at 300 K,
roughly one decade lower for high-Vt devices, ~1 fF/um of gate
capacitance and ~1 mA/um of NMOS drive.  They are deliberately exposed
as plain dataclass fields so experiments can re-calibrate them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import TechnologyError
from . import leakage_model

__all__ = ["Polarity", "VtFlavor", "MosfetParameters", "Mosfet"]


class Polarity(enum.Enum):
    """Channel polarity of a MOSFET."""

    NMOS = "nmos"
    PMOS = "pmos"

    #: Members are singletons compared by identity, so they hash by
    #: identity too: in C, unlike ``Enum.__hash__``.  Device memos and
    #: the structural cache's keys hash these on every scheme build.
    __hash__ = object.__hash__


class VtFlavor(enum.Enum):
    """Threshold-voltage flavor in a multi-Vt process.

    The paper's schemes use ``NOMINAL`` and ``HIGH``; ``LOW`` is included
    because the design-space exploration example sweeps it.
    """

    NOMINAL = "nominal"
    HIGH = "high"
    LOW = "low"

    #: Identity hash, as for :class:`Polarity`.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class MosfetParameters:
    """Process parameters for one (polarity, Vt flavor) device type.

    All linear densities are per metre of drawn width; areas are in
    square metres; voltages in volts; currents in amperes.
    """

    polarity: Polarity
    vt_flavor: VtFlavor
    threshold_voltage: float
    channel_length: float
    subthreshold_swing: float
    dibl: float
    i0_per_meter: float
    gate_current_density: float
    junction_current_per_meter: float
    drive_k_per_meter: float
    alpha: float
    gate_capacitance_per_meter: float
    diffusion_capacitance_per_meter: float

    def __post_init__(self) -> None:
        if self.threshold_voltage <= 0:
            raise TechnologyError("threshold voltage must be positive")
        if self.channel_length <= 0:
            raise TechnologyError("channel length must be positive")
        if self.subthreshold_swing <= 0:
            raise TechnologyError("subthreshold swing must be positive")
        if self.dibl < 0:
            raise TechnologyError("DIBL coefficient must be non-negative")
        if self.alpha < 1.0 or self.alpha > 2.0:
            raise TechnologyError("alpha-power exponent expected in [1, 2]")
        for name in (
            "i0_per_meter",
            "gate_current_density",
            "junction_current_per_meter",
            "drive_k_per_meter",
            "gate_capacitance_per_meter",
            "diffusion_capacitance_per_meter",
        ):
            if getattr(self, name) < 0:
                raise TechnologyError(f"{name} must be non-negative")



class Mosfet:
    """A sized transistor bound to a parameter set and supply voltage.

    This is the electrical model only; the role a device plays in an
    output path lives in :mod:`repro.circuit.devices`.  Widths are in
    metres.
    """

    def __init__(self, parameters: MosfetParameters, width: float, supply_voltage: float,
                 temperature: float = 300.0) -> None:
        if width <= 0:
            raise TechnologyError(f"transistor width must be positive, got {width}")
        if supply_voltage <= 0:
            raise TechnologyError("supply voltage must be positive")
        if temperature <= 0:
            raise TechnologyError("temperature must be positive kelvin")
        if parameters.threshold_voltage >= supply_voltage:
            raise TechnologyError(
                "threshold voltage must be below the supply voltage "
                f"({parameters.threshold_voltage} >= {supply_voltage})"
            )
        self.parameters = parameters
        self.width = width
        self.supply_voltage = supply_voltage
        self.temperature = temperature

    # -- leakage -----------------------------------------------------------
    def subthreshold_current(self, vgs: float = 0.0, vds: float | None = None) -> float:
        """Sub-threshold current for the given bias (magnitudes, amperes)."""
        if vds is None:
            vds = self.supply_voltage
        return leakage_model.subthreshold_current(
            width=self.width,
            i0_per_meter=self.parameters.i0_per_meter,
            vgs=vgs,
            vds=vds,
            vt=self.parameters.threshold_voltage,
            subthreshold_swing=self.parameters.subthreshold_swing,
            dibl=self.parameters.dibl,
            temperature=self.temperature,
        )

    def off_current(self, vds: float | None = None) -> float:
        """Sub-threshold current with the gate fully off (Vgs = 0)."""
        return self.subthreshold_current(vgs=0.0, vds=vds)

    def gate_leakage(self, gate_voltage: float | None = None) -> float:
        """Gate tunnelling current for the given oxide voltage (amperes)."""
        if gate_voltage is None:
            gate_voltage = self.supply_voltage
        return leakage_model.gate_leakage_current(
            width=self.width,
            length=self.parameters.channel_length,
            gate_current_density=self.parameters.gate_current_density,
            gate_voltage=gate_voltage,
            supply_voltage=self.supply_voltage,
        )

    def junction_leakage(self, vds: float | None = None) -> float:
        """Drain junction leakage (amperes)."""
        if vds is None:
            vds = self.supply_voltage
        return leakage_model.junction_leakage_current(
            width=self.width,
            junction_current_per_meter=self.parameters.junction_current_per_meter,
            vds=vds,
            supply_voltage=self.supply_voltage,
        )

    # -- drive / delay ------------------------------------------------------
    def saturation_current(self) -> float:
        """Drive current at Vgs = Vds = Vdd via the alpha-power law (amperes)."""
        overdrive = self.supply_voltage - self.parameters.threshold_voltage
        return self.parameters.drive_k_per_meter * self.width * overdrive**self.parameters.alpha

    def effective_resistance(self) -> float:
        """Effective switching resistance (ohms) for RC delay estimation.

        Uses the standard approximation ``R_eff ~= 0.75 * Vdd / Idsat``,
        which reproduces the 50 %-point delay of a step-driven RC load
        within a few percent for alpha close to 1.3.
        """
        idsat = self.saturation_current()
        if idsat <= 0:
            raise TechnologyError("saturation current must be positive to define a resistance")
        return 0.75 * self.supply_voltage / idsat

    def pass_resistance(self) -> float:
        """On-resistance when used as a pass transistor (ohms).

        A pass device conducts with a degraded gate overdrive (it must
        pull the source towards the gate voltage), so its effective
        resistance is larger than the same device switching in a CMOS
        gate.  We model this with the conventional ~1.5x degradation
        factor relative to :meth:`effective_resistance`.
        """
        return 1.5 * self.effective_resistance()

    # -- capacitance ---------------------------------------------------------
    def gate_capacitance(self) -> float:
        """Total gate capacitance (farads)."""
        return self.parameters.gate_capacitance_per_meter * self.width

    def diffusion_capacitance(self) -> float:
        """Drain (or source) diffusion capacitance (farads)."""
        return self.parameters.diffusion_capacitance_per_meter * self.width

    # -- convenience ----------------------------------------------------------
    @property
    def vt_flavor(self) -> VtFlavor:
        """Vt flavor of the underlying parameter set."""
        return self.parameters.vt_flavor

    @property
    def polarity(self) -> Polarity:
        """Channel polarity of the underlying parameter set."""
        return self.parameters.polarity

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Mosfet({self.parameters.polarity.value}, {self.parameters.vt_flavor.value}, "
            f"W={self.width:.3e} m)"
        )

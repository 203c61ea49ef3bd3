"""The :class:`TechnologyLibrary`: one object bundling everything the
circuit, timing and power layers need to know about the process.

A library combines:

* an ITRS roadmap node (geometry, supply, clock target),
* an operating condition (Vdd, junction temperature),
* a process corner,
* one :class:`~repro.technology.transistor.MosfetParameters` per
  (polarity, Vt flavor) pair, and
* per-layer :class:`~repro.technology.bptm.WireElectricalModel` objects.

The :func:`default_45nm` factory builds the configuration the paper
evaluates (45 nm, 1.0 V, 3 GHz).  Device constants follow predictive
45 nm-class values; the docstring of each constant in ``_DEVICE_TABLE``
explains its provenance.  Everything is overridable — the calibration
study in ``examples/design_space_exploration.py`` sweeps several of
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TechnologyError
from ..units import MICRO
from .bptm import WireElectricalModel
from .corners import OperatingCondition, ProcessCorner, get_corner
from .itrs import ItrsNode, get_node
from .transistor import Mosfet, MosfetParameters, Polarity, VtFlavor

__all__ = ["TechnologyLibrary", "default_45nm", "default_library_for_node"]


def _device_table_for_node(node: ItrsNode) -> dict[tuple[Polarity, VtFlavor], MosfetParameters]:
    """Build the per-flavor device parameter sets for a roadmap node.

    The constants below are representative of predictive technology
    models for the 45 nm class and scale mildly with the node feature
    size:

    * nominal NMOS Vt 0.22 V, high-Vt +150 mV, low-Vt -60 mV;
    * 100 mV/decade sub-threshold swing, DIBL 0.15 V/V;
    * characteristic sub-threshold current chosen to match the
      *2004-era predictive* 45 nm leakage levels the paper worked from
      (BPTM 45 nm forecast roughly 1 uA/um of off-current at room
      temperature, an order of magnitude above what manufactured 45 nm
      processes eventually delivered) — this is what makes leakage a
      first-order term of the crossbar power budget, as it is in the
      paper's Table 1;
    * gate tunnelling density representative of the thin SiON oxides
      assumed by the same forecasts (~hundreds of nA/um at full oxide
      voltage), the regime in which the DFC sleep transistor pays off;
    * ~1.5 mA/um-class NMOS drive via the alpha-power law (alpha = 1.3),
      PMOS at roughly half;
    * ~1 fF/um gate capacitance, 0.8 fF/um diffusion capacitance.
    """
    length = node.feature_size
    # Scale drive and capacitance gently with feature size relative to 45 nm.
    scale = 45e-9 / node.feature_size

    def params(polarity: Polarity, flavor: VtFlavor, vt: float) -> MosfetParameters:
        is_nmos = polarity is Polarity.NMOS
        return MosfetParameters(
            polarity=polarity,
            vt_flavor=flavor,
            threshold_voltage=vt,
            channel_length=length,
            subthreshold_swing=0.100,
            dibl=0.15,
            i0_per_meter=(7.5 if is_nmos else 3.75) * scale,
            gate_current_density=(2.0e6 if is_nmos else 4.0e5) * scale,
            junction_current_per_meter=1.0e-3,
            drive_k_per_meter=(1.5e3 if is_nmos else 0.75e3) * scale,
            alpha=1.3,
            gate_capacitance_per_meter=1.0e-9,
            diffusion_capacitance_per_meter=0.8e-9,
        )

    nominal_vt = 0.22
    high_vt = nominal_vt + 0.15
    low_vt = nominal_vt - 0.06
    table: dict[tuple[Polarity, VtFlavor], MosfetParameters] = {}
    for polarity in Polarity:
        table[(polarity, VtFlavor.NOMINAL)] = params(polarity, VtFlavor.NOMINAL, nominal_vt)
        table[(polarity, VtFlavor.HIGH)] = params(polarity, VtFlavor.HIGH, high_vt)
        table[(polarity, VtFlavor.LOW)] = params(polarity, VtFlavor.LOW, low_vt)
    return table


@dataclass
class TechnologyLibrary:
    """Process + operating point bundle consumed by all higher layers."""

    node: ItrsNode
    operating_condition: OperatingCondition
    corner: ProcessCorner
    devices: dict[tuple[Polarity, VtFlavor], MosfetParameters]
    clock_frequency: float
    wire_models: dict[str, WireElectricalModel] = field(default_factory=dict)
    #: The per-library memoised leakage evaluator, attached lazily by
    #: :func:`repro.circuit.biasing.kernel_for` (typed loosely because
    #: the circuit layer sits above this one).  Excluded from equality:
    #: a memo is bookkeeping, not part of the technology point.
    leakage_kernel: object | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.clock_frequency <= 0:
            raise TechnologyError("clock frequency must be positive")
        if not self.devices:
            raise TechnologyError("a technology library requires at least one device type")
        if not self.wire_models:
            self.wire_models = {
                layer: WireElectricalModel.from_geometry(geometry)
                for layer, geometry in self.node.wires.items()
            }
        # Shared-device memo: every (polarity, flavor, width) triple this
        # library has sized before returns the *same* Mosfet object, so
        # per-device leakage memos hit across call sites (the NoC buffer
        # model sizes the same bit cell on every evaluation).
        self._transistor_memo: dict[tuple[Polarity, VtFlavor, float], Mosfet] = {}
        # Corner-applied parameters per (polarity, flavor), each stored
        # with the base parameters and corner it was derived from, so an
        # edited device table or corner is never served stale.
        self._parameter_memo: dict[tuple[Polarity, VtFlavor],
                                   tuple[MosfetParameters, ProcessCorner,
                                         MosfetParameters]] = {}
        #: Figures of this library's shared transistors by (polarity,
        #: flavor, width), filled by
        #: :meth:`repro.crossbar.frame.CrossbarFrame.device` (typed loosely:
        #: the crossbar layer sits above this one).  Each holds its Mosfet
        #: and floats, not the library, so sharing them makes no cycle; they
        #: follow the Mosfets of :meth:`make_transistor`'s memo.
        self.device_figures: dict[tuple[Polarity, VtFlavor, float], object] = {}
        #: Wires of this library by (length, layer, neighbours), filled by
        #: :meth:`repro.interconnect.wire.Wire.on_layer` (typed loosely:
        #: the interconnect layer sits above this one).  Wires hold their
        #: layer model, not the library, so sharing them makes no cycle.
        self.wire_memo: dict[tuple[float, str, int], object] = {}

    # -- device access -------------------------------------------------------
    def device_parameters(self, polarity: Polarity, flavor: VtFlavor) -> MosfetParameters:
        """Corner-adjusted parameters for a device type (memoised)."""
        try:
            base = self.devices[(polarity, flavor)]
        except KeyError as exc:
            raise TechnologyError(
                f"no device parameters for ({polarity.value}, {flavor.value})"
            ) from exc
        corner = self.corner
        memo = self._parameter_memo.get((polarity, flavor))
        if memo is not None and memo[0] is base and memo[1] is corner:
            return memo[2]
        applied = corner.apply(base)
        self._parameter_memo[(polarity, flavor)] = (base, corner, applied)
        return applied

    def make_transistor(self, polarity: Polarity, flavor: VtFlavor, width: float) -> Mosfet:
        """The sized transistor at this library's operating point.

        Memoised per ``(polarity, flavor, width)``: repeated sizings
        return the same shared :class:`Mosfet` (callers never mutate
        devices), which is what lets bias-point memos keyed on device
        identity hit across schemes and the NoC layer.
        """
        key = (polarity, flavor, width)
        device = self._transistor_memo.get(key)
        if device is None:
            device = Mosfet(
                parameters=self.device_parameters(polarity, flavor),
                width=width,
                supply_voltage=self.supply_voltage,
                temperature=self.operating_condition.temperature_kelvin,
            )
            self._transistor_memo[key] = device
        return device

    # -- wires ----------------------------------------------------------------
    def wire_model(self, layer: str = "intermediate") -> WireElectricalModel:
        """Electrical per-unit-length model of an interconnect layer."""
        try:
            return self.wire_models[layer]
        except KeyError as exc:
            known = ", ".join(sorted(self.wire_models))
            raise TechnologyError(f"unknown wire layer {layer!r}; known layers: {known}") from exc

    # -- convenience -----------------------------------------------------------
    @property
    def supply_voltage(self) -> float:
        """Operating supply voltage in volts."""
        return self.operating_condition.supply_voltage

    @property
    def temperature_kelvin(self) -> float:
        """Junction temperature in kelvin."""
        return self.operating_condition.temperature_kelvin

    @property
    def clock_period(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.clock_frequency

    @property
    def minimum_width(self) -> float:
        """Minimum drawn transistor width (two feature sizes)."""
        return 2.0 * self.node.feature_size

    def with_corner(self, corner_name: str) -> "TechnologyLibrary":
        """Return a copy of this library at a different process corner."""
        return TechnologyLibrary(
            node=self.node,
            operating_condition=self.operating_condition,
            corner=get_corner(corner_name),
            devices=dict(self.devices),
            clock_frequency=self.clock_frequency,
            wire_models=dict(self.wire_models),
        )

    def with_temperature(self, temperature_celsius: float) -> "TechnologyLibrary":
        """Return a copy of this library at a different junction temperature."""
        return TechnologyLibrary(
            node=self.node,
            operating_condition=OperatingCondition(
                supply_voltage=self.operating_condition.supply_voltage,
                temperature_celsius=temperature_celsius,
            ),
            corner=self.corner,
            devices=dict(self.devices),
            clock_frequency=self.clock_frequency,
            wire_models=dict(self.wire_models),
        )


def default_library_for_node(
    node_name: str,
    temperature_celsius: float = 110.0,
    corner: str = "TT",
    clock_frequency: float | None = None,
) -> TechnologyLibrary:
    """Build the default library for any bundled roadmap node.

    The default junction temperature of 110 C reflects an active
    high-performance die, where leakage is a first-order concern (which
    is the regime the paper addresses); tests that need the cold-chip
    values pass 25 C explicitly.
    """
    node = get_node(node_name)
    condition = OperatingCondition(
        supply_voltage=node.supply_voltage, temperature_celsius=temperature_celsius
    )
    return TechnologyLibrary(
        node=node,
        operating_condition=condition,
        corner=get_corner(corner),
        devices=_device_table_for_node(node),
        clock_frequency=clock_frequency if clock_frequency is not None else node.nominal_clock_hz,
    )


def default_45nm(
    temperature_celsius: float = 110.0,
    corner: str = "TT",
    clock_frequency: float = 3.0e9,
) -> TechnologyLibrary:
    """The paper's technology point: 45 nm, 1.0 V, 3 GHz."""
    return default_library_for_node(
        "45nm",
        temperature_celsius=temperature_celsius,
        corner=corner,
        clock_frequency=clock_frequency,
    )


#: A convenient reference width (one micron) used by sizing helpers.
REFERENCE_WIDTH = 1.0 * MICRO

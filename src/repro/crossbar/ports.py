"""Crossbar configuration: port structure, flit width, geometry and sizing.

The paper evaluates a 5-by-5 matrix crossbar with 128-bit flits.  The
:class:`CrossbarConfig` captures that experiment's knobs plus the device
sizing the schematic-level model needs.  Defaults reproduce the paper's
configuration; every field can be overridden for the design-space
studies.

Sizing defaults (in metres) are chosen for a 45 nm crossbar driving
~100 um-class wires: micron-scale pass devices and output drivers, a
weak keeper, a small sleep device.  The calibration notes in
``EXPERIMENTS.md`` record the values used for the headline tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..errors import CrossbarError
from ..technology.library import TechnologyLibrary
from ..units import MICRO

__all__ = ["PortDirection", "CrossbarConfig"]


class PortDirection(enum.Enum):
    """The five router ports of a 2-D mesh NoC router."""

    NORTH = "north"
    SOUTH = "south"
    WEST = "west"
    EAST = "east"
    PE = "pe"

    @classmethod
    def ordered(cls) -> list["PortDirection"]:
        """Ports in the conventional N, S, W, E, PE order used by the paper."""
        return [cls.NORTH, cls.SOUTH, cls.WEST, cls.EAST, cls.PE]


@dataclass(frozen=True)
class CrossbarConfig:
    """Structural and sizing description of one matrix crossbar.

    Geometry
    --------
    ``input_wire_length`` / ``row_wire_length`` / ``output_wire_length``
    may be left as ``None`` to be derived from the flit width, port count
    and the wire pitch of the chosen layer: a matrix crossbar is
    physically a ``(ports x flit)`` by ``(ports x flit)`` wire array, so
    both the input column wires and the output row (merge) wires span
    ``port_count * flit_width * pitch * layout_overhead``; the output
    port wire (from the output driver to the port/PE interface) defaults
    to the same span.

    Sizing
    ------
    Widths are drawn transistor widths in metres.  ``driver1_*`` is the
    first inverter of the output driver (I1 in Fig. 1), ``driver2_*`` the
    second (I2), which drives the output port wire.
    """

    port_count: int = 5
    flit_width: int = 128
    #: Router input buffer depth (flits); consumed by the network-level
    #: power roll-up, carried here so it is part of the structural point.
    input_buffer_depth: int = 4
    allow_self_connection: bool = False
    wire_layer: str = "intermediate"
    layout_overhead: float = 1.0
    input_wire_length: float | None = None
    row_wire_length: float | None = None
    output_wire_length: float | None = None

    input_driver_nmos_width: float = 3.0 * MICRO
    input_driver_pmos_width: float = 6.0 * MICRO
    pass_width: float = 1.4 * MICRO
    keeper_width: float = 0.55 * MICRO
    sleep_width: float = 1.30 * MICRO
    precharge_width: float = 0.80 * MICRO
    segment_switch_width: float = 3.0 * MICRO
    driver1_nmos_width: float = 1.0 * MICRO
    driver1_pmos_width: float = 2.0 * MICRO
    driver2_nmos_width: float = 4.0 * MICRO
    driver2_pmos_width: float = 8.0 * MICRO
    receiver_capacitance: float | None = None

    #: Fraction of the clock period the crossbar traversal may use; the
    #: remainder belongs to the other router pipeline stages.
    timing_budget_fraction: float = 0.25

    def __post_init__(self) -> None:
        # Error messages name fields by their config path (the mount
        # point in ExperimentConfig), so engine users sweeping e.g.
        # "crossbar.port_count" see the axis they actually set.
        if self.port_count < 2:
            raise CrossbarError(
                f"crossbar.port_count: a crossbar needs at least 2 ports, got {self.port_count}"
            )
        if self.flit_width < 1:
            raise CrossbarError(
                f"crossbar.flit_width must be at least 1 bit, got {self.flit_width}"
            )
        if self.input_buffer_depth < 1:
            raise CrossbarError(
                f"crossbar.input_buffer_depth must be at least 1 flit, "
                f"got {self.input_buffer_depth}"
            )
        if self.layout_overhead < 1.0:
            raise CrossbarError("crossbar.layout_overhead must be >= 1")
        if not 0.0 < self.timing_budget_fraction <= 1.0:
            raise CrossbarError("crossbar.timing_budget_fraction must be in (0, 1]")
        for name in (
            "input_driver_nmos_width",
            "input_driver_pmos_width",
            "pass_width",
            "keeper_width",
            "sleep_width",
            "precharge_width",
            "segment_switch_width",
            "driver1_nmos_width",
            "driver1_pmos_width",
            "driver2_nmos_width",
            "driver2_pmos_width",
        ):
            if getattr(self, name) <= 0:
                raise CrossbarError(f"crossbar.{name} must be positive")
        for name in ("input_wire_length", "row_wire_length", "output_wire_length"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise CrossbarError(f"crossbar.{name} must be positive when given")
        if self.receiver_capacitance is not None and self.receiver_capacitance < 0:
            raise CrossbarError("crossbar.receiver_capacitance cannot be negative")

    # -- derived structure ---------------------------------------------------------
    @property
    def inputs_per_output(self) -> int:
        """Number of crosspoints (pass transistors) on each output row."""
        if self.allow_self_connection:
            return self.port_count
        return self.port_count - 1

    @property
    def port_names(self) -> tuple[str, ...]:
        """Names of the crossbar's ports, one per port: the five mesh
        directions in :meth:`PortDirection.ordered` order, then
        ``port5``, ``port6``, ... for radixes above five."""
        names = [port.value for port in PortDirection.ordered()]
        names += [f"port{index}" for index in range(len(names), self.port_count)]
        return tuple(names[: self.port_count])

    @property
    def output_count(self) -> int:
        """Number of output ports."""
        return self.port_count

    @property
    def total_crosspoints(self) -> int:
        """Pass-transistor count for the whole crossbar (all bits)."""
        return self.output_count * self.inputs_per_output * self.flit_width

    def crossbar_span(self, library: TechnologyLibrary) -> float:
        """Physical span (metres) of the wire array in one dimension."""
        pitch = library.node.wire_layer(self.wire_layer).pitch
        return self.port_count * self.flit_width * pitch * self.layout_overhead

    def resolved_input_wire_length(self, library: TechnologyLibrary) -> float:
        """Input column wire length (metres)."""
        if self.input_wire_length is not None:
            return self.input_wire_length
        return self.crossbar_span(library)

    def resolved_row_wire_length(self, library: TechnologyLibrary) -> float:
        """Output row (merge-node) wire length (metres)."""
        if self.row_wire_length is not None:
            return self.row_wire_length
        return self.crossbar_span(library)

    def resolved_output_wire_length(self, library: TechnologyLibrary) -> float:
        """Output port wire length (metres), from the output driver to the port."""
        if self.output_wire_length is not None:
            return self.output_wire_length
        return self.crossbar_span(library)

    def resolved_receiver_capacitance(self, library: TechnologyLibrary) -> float:
        """Load capacitance at the far end of the output port wire (farads).

        Defaults to the input capacitance of a gate comparable to the
        input driver (the next router's buffer write port).
        """
        if self.receiver_capacitance is not None:
            return self.receiver_capacitance
        from ..technology.transistor import Polarity, VtFlavor

        gate_cap_per_meter = library.device_parameters(
            Polarity.NMOS, VtFlavor.NOMINAL
        ).gate_capacitance_per_meter
        return gate_cap_per_meter * (self.input_driver_nmos_width + self.input_driver_pmos_width)

    def with_overrides(self, **overrides) -> "CrossbarConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

"""Crossbar configuration: port structure, flit width, geometry and sizing.

The paper evaluates a 5-by-5 matrix crossbar with 128-bit flits.  The
:class:`CrossbarConfig` captures that experiment's knobs plus the device
sizing the schematic-level model needs.  Defaults reproduce the paper's
configuration; every field can be overridden for the design-space
studies.

Sizing defaults (in metres) are chosen for a 45 nm crossbar driving
~100 um-class wires: micron-scale pass devices and output drivers, a
weak keeper, a small sleep device.  ``PAPER_TABLE1`` in
``benchmarks/conftest.py`` holds the paper's figures these defaults are
compared against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from math import isfinite
from numbers import Integral, Real

from ..errors import ConfigurationError, CrossbarError
from ..technology.library import TechnologyLibrary
from ..units import MICRO

__all__ = ["PortDirection", "CrossbarConfig"]

#: Largest crossbar radix and flit width a :class:`CrossbarConfig` takes.
#: On-chip router crossbars stay well inside both; a value past them
#: describes no crossbar (a million ports evaluates to tens of terawatts).
MAX_PORT_COUNT = 64
MAX_FLIT_WIDTH = 1024


def config_number(path: str, value: object, integral: bool = False) -> Real:
    """``value`` checked for the numeric config leaf ``path``: a real
    number (a bool is a flag, not a number), and on an ``integral`` path
    an integer, or an integral value of another type taken as that int,
    elsewhere one a float can hold (the model computes in floats).
    Anything else raises a :class:`~repro.errors.ConfigurationError`
    naming ``path``."""
    # float and int first: the abstract Real check is the slow one.
    if isinstance(value, bool) or not isinstance(value, (float, int, Real)):
        raise ConfigurationError(f"{path} must be a number, got {value!r}")
    if integral:
        if isinstance(value, Integral):
            return value
        if not (isfinite(value) and value == int(value)):
            raise ConfigurationError(f"{path} must be an integer, got {value!r}")
        return int(value)
    if not isinstance(value, float):
        try:
            float(value)
        except OverflowError:
            raise ConfigurationError(
                f"{path} must be a number a float can hold, got {value!r}") from None
    return value


class PortDirection(enum.Enum):
    """The five router ports of a 2-D mesh NoC router."""

    NORTH = "north"
    SOUTH = "south"
    WEST = "west"
    EAST = "east"
    PE = "pe"

    #: Members are singletons compared by identity, so they hash by
    #: identity too (as :class:`~repro.technology.transistor.Polarity`
    #: does): the network simulator hashes ports on every routed flit.
    __hash__ = object.__hash__

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
        # "crossbar.port_count" see the axis they actually set.  A leaf
        # whose default is a number holds one of that kind (None where the
        # default is None), and NaN and infinities are refused, before any
        # range check compares it.  (Not through vars(self): materialising
        # an instance's __dict__ slows every later attribute read on it,
        # and one crossbar serves many points.)
        for field in fields(self):
            value = getattr(self, field.name)
            kind = type(field.default)
            if kind is bool or kind is str or value is None and field.default is None:
                continue
            number = config_number(f"crossbar.{field.name}", value, integral=kind is int)
            if number is not value:
                object.__setattr__(self, field.name, number)
            if isinstance(number, float) and not isfinite(number):
                raise CrossbarError(
                    f"crossbar.{field.name} must be a finite number, got {number}")
        if not isinstance(self.wire_layer, str):
            raise ConfigurationError(
                f"crossbar.wire_layer must be a layer name (str), got {self.wire_layer!r}")
        # A flag: a bool, or the int 0 or 1 it equals.
        if not (isinstance(self.allow_self_connection, int)
                and self.allow_self_connection in (0, 1)):
            raise ConfigurationError(
                f"crossbar.allow_self_connection must be a bool, "
                f"got {self.allow_self_connection!r}")
        if not 2 <= self.port_count <= MAX_PORT_COUNT:
            raise CrossbarError(
                f"crossbar.port_count: a crossbar has 2 to {MAX_PORT_COUNT} ports, "
                f"got {self.port_count}"
            )
        if not 1 <= self.flit_width <= MAX_FLIT_WIDTH:
            raise CrossbarError(
                f"crossbar.flit_width must be 1 to {MAX_FLIT_WIDTH} bits, got {self.flit_width}"
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

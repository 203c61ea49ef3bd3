"""ITRS-style interconnect and device roadmap tables.

The paper derives its wire geometry ("wire pitch, space, aspect ratio and
dielectric material parameters") from the International Technology
Roadmap for Semiconductors (ITRS) and its device/wire electrical models
from the Berkeley Predictive Technology Model (BPTM).  The original ITRS
spreadsheets cannot be bundled here, so this module encodes the
*functional content* the paper needs: per-node interconnect geometry and
nominal supply/clock figures, with representative values that follow the
published roadmap scaling trend (each value is documented below and can
be overridden by constructing :class:`ItrsNode` directly).

Only the 45 nm entry is used by the headline reproduction (the paper's
experiments are at 45 nm); the neighbouring nodes are provided so that
the design-space exploration examples can sweep across technology
generations, mirroring how the roadmap is normally consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TechnologyError
from ..units import NANO

__all__ = ["WireGeometry", "ItrsNode", "ITRS_NODES", "get_node", "available_nodes"]


@dataclass(frozen=True)
class WireGeometry:
    """Geometry of a single interconnect layer class.

    All dimensions are in metres.  ``layer`` follows the ITRS naming
    convention: ``local`` (metal-1-like), ``intermediate`` (the layers a
    crossbar or router datapath is routed on) and ``global`` (top-level,
    thick and wide wires).

    Attributes
    ----------
    layer:
        Layer class name.
    width:
        Drawn wire width.
    spacing:
        Edge-to-edge spacing to the neighbouring wire on the same layer.
    thickness:
        Metal thickness; the aspect ratio is ``thickness / width``.
    height_above_plane:
        Dielectric height between the bottom of the wire and the ground
        plane below (ILD thickness).
    dielectric_constant:
        Relative permittivity of the surrounding inter-layer dielectric.
    resistivity:
        Effective conductor resistivity in ohm-metres, *including* the
        barrier/liner and surface-scattering penalty, which is why the
        value exceeds bulk copper (1.68e-8).
    """

    layer: str
    width: float
    spacing: float
    thickness: float
    height_above_plane: float
    dielectric_constant: float
    resistivity: float

    def __post_init__(self) -> None:
        for name in ("width", "spacing", "thickness", "height_above_plane"):
            value = getattr(self, name)
            if value <= 0:
                raise TechnologyError(f"wire geometry {name} must be positive, got {value}")
        if self.dielectric_constant < 1.0:
            raise TechnologyError(
                f"dielectric constant below vacuum ({self.dielectric_constant}) is unphysical"
            )
        if self.resistivity <= 0:
            raise TechnologyError(f"resistivity must be positive, got {self.resistivity}")

    @property
    def pitch(self) -> float:
        """Wire pitch (width + spacing) in metres."""
        return self.width + self.spacing



@dataclass(frozen=True)
class ItrsNode:
    """One technology-node row of the roadmap.

    Attributes
    ----------
    name:
        Human-readable node name, e.g. ``"45nm"``.
    feature_size:
        Nominal half-pitch / printed gate length in metres.
    supply_voltage:
        Nominal Vdd in volts.
    nominal_clock_hz:
        The on-chip clock target the roadmap projects for the node.  The
        paper evaluates at 3 GHz, matching the 45 nm projection.
    wires:
        Mapping of layer class name to :class:`WireGeometry`.
    """

    name: str
    feature_size: float
    supply_voltage: float
    nominal_clock_hz: float
    wires: dict[str, WireGeometry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.feature_size <= 0:
            raise TechnologyError(f"feature size must be positive, got {self.feature_size}")
        if self.supply_voltage <= 0:
            raise TechnologyError(f"supply voltage must be positive, got {self.supply_voltage}")
        if self.nominal_clock_hz <= 0:
            raise TechnologyError(f"clock must be positive, got {self.nominal_clock_hz}")
        if not self.wires:
            raise TechnologyError(f"node {self.name} defines no wire layers")

    def wire_layer(self, layer: str) -> WireGeometry:
        """Return the geometry of ``layer``, raising for unknown layers."""
        try:
            return self.wires[layer]
        except KeyError as exc:
            known = ", ".join(sorted(self.wires))
            raise TechnologyError(f"unknown wire layer {layer!r}; known layers: {known}") from exc


def _node(
    name: str,
    feature_nm: float,
    vdd: float,
    clock_ghz: float,
    layers: dict[str, tuple[float, float, float, float, float, float]],
) -> ItrsNode:
    """Build an :class:`ItrsNode` from nanometre-denominated layer tuples.

    Each layer tuple is ``(width_nm, spacing_nm, thickness_nm,
    height_nm, k, resistivity_ohm_m)``.
    """
    wires = {
        layer: WireGeometry(
            layer=layer,
            width=width * NANO,
            spacing=spacing * NANO,
            thickness=thickness * NANO,
            height_above_plane=height * NANO,
            dielectric_constant=k,
            resistivity=rho,
        )
        for layer, (width, spacing, thickness, height, k, rho) in layers.items()
    }
    return ItrsNode(
        name=name,
        feature_size=feature_nm * NANO,
        supply_voltage=vdd,
        nominal_clock_hz=clock_ghz * 1e9,
        wires=wires,
    )


#: Representative roadmap rows.  The trend follows the published ITRS
#: scaling: pitches scale roughly with the node, aspect ratios grow
#: slowly, the effective dielectric constant drops as low-k materials
#: are introduced and the effective resistivity rises as barriers take a
#: larger share of the cross-section.
ITRS_NODES: dict[str, ItrsNode] = {
    "90nm": _node(
        "90nm",
        90,
        1.2,
        2.0,
        {
            "local": (107, 107, 180, 200, 3.3, 2.5e-8),
            "intermediate": (140, 140, 252, 270, 3.3, 2.4e-8),
            "global": (210, 210, 420, 400, 3.3, 2.3e-8),
        },
    ),
    "65nm": _node(
        "65nm",
        65,
        1.1,
        2.5,
        {
            "local": (76, 76, 136, 150, 3.0, 2.7e-8),
            "intermediate": (100, 100, 190, 200, 3.0, 2.6e-8),
            "global": (150, 150, 315, 300, 3.0, 2.4e-8),
        },
    ),
    "45nm": _node(
        "45nm",
        45,
        1.0,
        3.0,
        {
            "local": (54, 54, 102, 110, 2.7, 3.0e-8),
            "intermediate": (70, 70, 140, 150, 2.7, 2.8e-8),
            "global": (105, 105, 230, 220, 2.7, 2.5e-8),
        },
    ),
    "32nm": _node(
        "32nm",
        32,
        0.9,
        3.5,
        {
            "local": (38, 38, 76, 80, 2.5, 3.6e-8),
            "intermediate": (50, 50, 100, 110, 2.5, 3.3e-8),
            "global": (75, 75, 170, 160, 2.5, 2.9e-8),
        },
    ),
}


def available_nodes() -> list[str]:
    """Return the names of the roadmap nodes bundled with the library."""
    return sorted(ITRS_NODES, key=lambda name: -ITRS_NODES[name].feature_size)


def get_node(name: str) -> ItrsNode:
    """Look up a roadmap node by name (e.g. ``"45nm"``).

    Raises :class:`~repro.errors.TechnologyError` for unknown nodes so
    that a typo in an experiment configuration fails loudly rather than
    silently falling back to a default.
    """
    try:
        return ITRS_NODES[name]
    except KeyError as exc:
        known = ", ".join(available_nodes())
        raise TechnologyError(f"unknown technology node {name!r}; known nodes: {known}") from exc

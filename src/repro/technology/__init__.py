"""Technology substrate: roadmap geometry, predictive wire RC and MOSFET models.

This package is the reproduction of the paper's technology inputs
(ITRS interconnect parameters + Berkeley Predictive Technology Model);
``docs/architecture.md`` places it in the layer stack, and the module
docstrings carry the substitution notes.
"""

from .bptm import WireElectricalModel, wire_capacitance_per_meter, wire_resistance_per_meter
from .corners import STANDARD_CORNERS, OperatingCondition, ProcessCorner, get_corner
from .itrs import ITRS_NODES, ItrsNode, WireGeometry, available_nodes, get_node
from .leakage_model import (
    gate_leakage_current,
    junction_leakage_current,
    stack_factor,
    subthreshold_current,
    temperature_scaled_vt,
)
from .library import TechnologyLibrary, default_45nm, default_library_for_node
from .transistor import Mosfet, MosfetParameters, Polarity, VtFlavor

__all__ = [
    "ITRS_NODES",
    "ItrsNode",
    "Mosfet",
    "MosfetParameters",
    "OperatingCondition",
    "Polarity",
    "ProcessCorner",
    "STANDARD_CORNERS",
    "TechnologyLibrary",
    "VtFlavor",
    "WireElectricalModel",
    "WireGeometry",
    "available_nodes",
    "default_45nm",
    "default_library_for_node",
    "gate_leakage_current",
    "get_corner",
    "get_node",
    "junction_leakage_current",
    "stack_factor",
    "subthreshold_current",
    "temperature_scaled_vt",
    "wire_capacitance_per_meter",
    "wire_resistance_per_meter",
]

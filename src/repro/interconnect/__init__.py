"""Interconnect substrate: wires, pi models, repeaters, segmentation.

See ``docs/architecture.md``.
"""

from .pi_model import PiModel
from .repeater import RepeaterDesign, optimal_repeaters
from .segmentation import SegmentationPlan, SegmentedWire
from .wire import Wire

__all__ = [
    "PiModel",
    "RepeaterDesign",
    "SegmentationPlan",
    "SegmentedWire",
    "Wire",
    "optimal_repeaters",
]

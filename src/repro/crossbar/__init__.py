"""The paper's contribution: the five leakage-aware crossbar designs.

See ``docs/architecture.md`` and the per-module docstrings for the
mapping to the paper's Figures 1-3.
"""

from .base import CrossbarScheme, SchemeFeatures, VtPlan
from .dfc import DualVtFeedbackCrossbar
from .dpc import DualVtPrechargedCrossbar
from .factory import (
    SCHEME_ORDER,
    available_schemes,
    create_all_schemes,
    create_scheme,
    register_scheme,
)
from .ports import CrossbarConfig, PortDirection
from .sc import SingleVtCrossbar
from .sdfc import SegmentedDualVtFeedbackCrossbar
from .sdpc import SegmentedDualVtPrechargedCrossbar

__all__ = [
    "CrossbarConfig",
    "CrossbarScheme",
    "DualVtFeedbackCrossbar",
    "DualVtPrechargedCrossbar",
    "PortDirection",
    "SCHEME_ORDER",
    "SchemeFeatures",
    "SegmentedDualVtFeedbackCrossbar",
    "SegmentedDualVtPrechargedCrossbar",
    "SingleVtCrossbar",
    "VtPlan",
    "available_schemes",
    "create_all_schemes",
    "create_scheme",
    "register_scheme",
]

"""SDPC — Segmented Dual-Vt Pre-Charged Crossbar (paper Section 2.4, Fig. 3b).

The SDPC combines every mechanism in the paper:

* pre-charge of the merge/output path to Vdd (as in the DPC), so rising
  transfers are nearly free and there is no level-restoration
  requirement for the NMOS pass devices;
* segmentation of the row wire with per-segment sleep *and* per-segment
  pre-charge control (Fig. 3b shows a ``pre`` device on every segment);
* the slack from both mechanisms spent on high-Vt devices: "the longer
  slack in the paths in the shaded area allows all transistors in their
  output drivers to be of high Vt" — so, unlike the DPC's asymmetric
  drivers, the SDPC's whole output driver chain is high-Vt, and the
  near-segment crosspoints are high-Vt as well.

This yields the best active (~64 %) and standby (~96 %) leakage savings
in Table 1, with a small (~2 %) delay penalty — smaller than the SDFC's
because the pre-charge removes the slow rising direction that the
high-Vt drivers would otherwise penalise most.  Like the DPC, its
dynamic power is worst at 50 % static probability, so the paper targets
it at traffic whose data leans to one polarity.
"""

from __future__ import annotations

from ..technology.library import TechnologyLibrary
from ..technology.transistor import VtFlavor
from .base import CrossbarScheme, SchemeFeatures, VtPlan
from .ports import CrossbarConfig

__all__ = ["SegmentedDualVtPrechargedCrossbar"]


FEATURES = SchemeFeatures(
    has_keeper=False,
    has_precharge=True,
    has_sleep=True,
    segmented=True,
    precharge_to_high=True,
    far_segment_sleeps_when_unused=True,
)
VT_PLAN = VtPlan(
    pass_transistor=VtFlavor.NOMINAL,       # far-segment crosspoints (critical path 2)
    near_pass_transistor=VtFlavor.HIGH,
    sleep=VtFlavor.HIGH,
    precharge=VtFlavor.HIGH,
    segment_switch=VtFlavor.NOMINAL,
    driver1_nmos=VtFlavor.HIGH,
    driver1_pmos=VtFlavor.HIGH,
    driver2_nmos=VtFlavor.HIGH,
    driver2_pmos=VtFlavor.HIGH,
    input_driver=VtFlavor.NOMINAL,
)


class SegmentedDualVtPrechargedCrossbar(CrossbarScheme):
    """Segmented dual-Vt pre-charged crossbar (Table 1 column "SDPC")."""

    name = "SDPC"
    description = (
        "segmented pre-charged crossbar: per-segment sleep and pre-charge, fully "
        "high-Vt output drivers and high-Vt near-segment crosspoints"
    )

    def __init__(self, library: TechnologyLibrary, config: CrossbarConfig | None = None) -> None:
        super().__init__(library, config, features=FEATURES, vt_plan=VT_PLAN)

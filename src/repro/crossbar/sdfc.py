"""SDFC — Segmented Dual-Vt Feedback Crossbar (paper Section 2.3, Fig. 3a).

Segmentation splits the merge (output row) wire into a near segment —
the crosspoints closest to the output driver, path 1 in Fig. 3a — and a
far segment (path 2), joined by a segment switch.  Three effects follow,
all modelled here:

* **Dynamic power** drops because a transfer from a near input only
  switches the near half of the row wire.
* **Active leakage** drops because the slack created by the shorter
  near path is spent on more high-Vt devices.  Following the paper's
  note that the gain comes from a "microarchitectural improvement in the
  output driver designs", the output driver chain (I1 and I2) is made
  high-Vt — segmentation shortens the merge-node RC enough that the
  slower driver still (almost) fits the timing budget, which is exactly
  the Table 1 trade: the SDFC carries the largest delay penalty (~5 %)
  and in exchange raises the active-leakage saving from the DFC's ~10 %
  to ~42 %.  The near-segment pass transistors are high-Vt as well.
* **Standby leakage** benefits twice: every segment has its own sleep
  transistor, and the far segment is put into standby even during active
  operation whenever the current transfer does not need it.

The far-segment crosspoints and the segment switch stay nominal: the far
path (path 2) is the new critical path and cannot afford slower devices.
"""

from __future__ import annotations

from ..technology.library import TechnologyLibrary
from ..technology.transistor import VtFlavor
from .base import CrossbarScheme, SchemeFeatures, VtPlan
from .ports import CrossbarConfig

__all__ = ["SegmentedDualVtFeedbackCrossbar"]


FEATURES = SchemeFeatures(
    has_keeper=True,
    has_precharge=False,
    has_sleep=True,
    segmented=True,
    far_segment_sleeps_when_unused=True,
)
VT_PLAN = VtPlan(
    pass_transistor=VtFlavor.NOMINAL,       # far-segment crosspoints (critical path 2)
    near_pass_transistor=VtFlavor.HIGH,      # path-1 slack converted to high Vt
    keeper=VtFlavor.HIGH,
    sleep=VtFlavor.HIGH,
    segment_switch=VtFlavor.NOMINAL,
    # The segmentation slack pays for a slower output driver: the
    # first stage goes fully high-Vt and the second stage's NMOS
    # (falling direction) does too.  The second stage's PMOS stays
    # nominal because the rising direction — already the slow one in
    # a feedback design, with the pass-transistor threshold drop and
    # the weak keeper completing the swing — cannot absorb more
    # delay; that remaining nominal device is what separates the
    # SDFC's saving from the SDPC's, where the pre-charge removes
    # the rising-direction constraint entirely.
    driver1_nmos=VtFlavor.HIGH,
    driver1_pmos=VtFlavor.HIGH,
    driver2_nmos=VtFlavor.HIGH,
    driver2_pmos=VtFlavor.NOMINAL,
    input_driver=VtFlavor.NOMINAL,
)


class SegmentedDualVtFeedbackCrossbar(CrossbarScheme):
    """Segmented dual-Vt feedback crossbar (Table 1 column "SDFC")."""

    name = "SDFC"
    description = (
        "segmented feedback crossbar: per-segment sleep, high-Vt near-segment "
        "crosspoints and high-Vt output drivers funded by the segmentation slack"
    )

    def __init__(self, library: TechnologyLibrary, config: CrossbarConfig | None = None) -> None:
        super().__init__(library, config, features=FEATURES, vt_plan=VT_PLAN)

"""DFC — Dual-Vt Feedback Crossbar (paper Section 2.1, Fig. 1).

The DFC keeps the SC circuit but moves the devices that are *not* on the
critical data path to the high-Vt flavor:

* the feedback keeper P1 — a weaker (high-Vt) keeper opposes the
  high-to-low transition less, which is why Table 1 shows the DFC's
  high-to-low delay *improving* over SC while its low-to-high delay
  (where the keeper helps complete the swing) degrades slightly;
* the sleep transistor N5 — it only acts in standby entry, so its speed
  is irrelevant; keeping it high-Vt avoids adding a new leakage path.

In standby the sleep transistor pulls the merge node to ground, which
collapses the voltage across the pass-transistor gate oxides and stops
their gate leakage — the mechanism the paper credits for the DFC's
standby savings.
"""

from __future__ import annotations

from ..technology.library import TechnologyLibrary
from ..technology.transistor import VtFlavor
from .base import CrossbarScheme, SchemeFeatures, VtPlan
from .ports import CrossbarConfig

__all__ = ["DualVtFeedbackCrossbar"]


FEATURES = SchemeFeatures(
    has_keeper=True,
    has_precharge=False,
    has_sleep=True,
    segmented=False,
)
VT_PLAN = VtPlan(
    pass_transistor=VtFlavor.NOMINAL,
    keeper=VtFlavor.HIGH,
    sleep=VtFlavor.HIGH,
    driver1_nmos=VtFlavor.NOMINAL,
    driver1_pmos=VtFlavor.NOMINAL,
    driver2_nmos=VtFlavor.NOMINAL,
    driver2_pmos=VtFlavor.NOMINAL,
    input_driver=VtFlavor.NOMINAL,
)


class DualVtFeedbackCrossbar(CrossbarScheme):
    """Dual-Vt feedback crossbar (Table 1 column "DFC")."""

    name = "DFC"
    description = "dual-Vt feedback crossbar: high-Vt keeper and sleep device, nominal data path"

    def __init__(self, library: TechnologyLibrary, config: CrossbarConfig | None = None) -> None:
        super().__init__(library, config, features=FEATURES, vt_plan=VT_PLAN)

"""SC — the single-Vt baseline crossbar.

The paper's base case: "the scheme SC, whose circuit is the same as the
DFC except for using a single nominal Vt".  Structurally it therefore
has the feedback keeper, the output driver chain and the sleep
transistor of Fig. 1, but every device — keeper and sleep included — is
a nominal-Vt device.  All Table 1 savings and penalties are measured
against this design.
"""

from __future__ import annotations

from ..technology.library import TechnologyLibrary
from ..technology.transistor import VtFlavor
from .base import CrossbarScheme, SchemeFeatures, VtPlan
from .ports import CrossbarConfig

__all__ = ["SingleVtCrossbar"]


FEATURES = SchemeFeatures(
    has_keeper=True,
    has_precharge=False,
    has_sleep=True,
    segmented=False,
)
VT_PLAN = VtPlan(
    pass_transistor=VtFlavor.NOMINAL,
    keeper=VtFlavor.NOMINAL,
    sleep=VtFlavor.NOMINAL,
    driver1_nmos=VtFlavor.NOMINAL,
    driver1_pmos=VtFlavor.NOMINAL,
    driver2_nmos=VtFlavor.NOMINAL,
    driver2_pmos=VtFlavor.NOMINAL,
    input_driver=VtFlavor.NOMINAL,
)


class SingleVtCrossbar(CrossbarScheme):
    """Baseline single-Vt feedback crossbar (Table 1 column "SC")."""

    name = "SC"
    description = "single-Vt feedback crossbar baseline (same circuit as DFC, all nominal Vt)"

    def __init__(self, library: TechnologyLibrary, config: CrossbarConfig | None = None) -> None:
        super().__init__(library, config, features=FEATURES, vt_plan=VT_PLAN)

"""DPC — Dual-Vt Pre-Charged Crossbar (paper Section 2.2, Fig. 2).

The DPC replaces the feedback keeper with a clocked pre-charge PMOS that
parks the merge node (and hence the output) at Vdd during the negative
clock phase.  A logic-1 transfer therefore costs almost no delay, and
the slack this frees on the rising direction is spent on **asymmetric
high-Vt output drivers**:

* the devices that drive the *falling* output (I1's PMOS, I2's NMOS)
  stay nominal — they remain the critical path;
* the devices that drive the *rising* output (I1's NMOS, I2's PMOS) go
  high-Vt — the pre-charge does most of their work.

Leakage behaviour: with the merge node low (a transferred 0), the off
devices in the driver chain are exactly the high-Vt ones, so roughly
half of all data states leak at the high-Vt level — the source of the
DPC's ~44 % active-leakage saving.  In standby the sleep device forces
the merge node low and the pre-charge is gated off, so the whole driver
chain rests in that minimum-leakage state, giving the >90 % standby
saving the paper reports.  The cost is the pre-charge switching penalty,
which is worst when half of the transferred bits are 0 (50 % static
probability), which is why Table 1 flags its power figure as the worst
case.
"""

from __future__ import annotations

from ..technology.library import TechnologyLibrary
from ..technology.transistor import VtFlavor
from .base import CrossbarScheme, SchemeFeatures, VtPlan
from .ports import CrossbarConfig

__all__ = ["DualVtPrechargedCrossbar"]


FEATURES = SchemeFeatures(
    has_keeper=False,
    has_precharge=True,
    has_sleep=True,
    segmented=False,
    precharge_to_high=True,
)
VT_PLAN = VtPlan(
    pass_transistor=VtFlavor.NOMINAL,
    sleep=VtFlavor.HIGH,
    precharge=VtFlavor.HIGH,
    # Asymmetric drivers: rising-direction devices are high-Vt.
    driver1_nmos=VtFlavor.HIGH,
    driver1_pmos=VtFlavor.NOMINAL,
    driver2_nmos=VtFlavor.NOMINAL,
    driver2_pmos=VtFlavor.HIGH,
    input_driver=VtFlavor.NOMINAL,
)


class DualVtPrechargedCrossbar(CrossbarScheme):
    """Dual-Vt pre-charged crossbar (Table 1 column "DPC")."""

    name = "DPC"
    description = (
        "pre-charged crossbar with asymmetric high-Vt output drivers "
        "(rising direction high-Vt, falling direction nominal)"
    )

    def __init__(self, library: TechnologyLibrary, config: CrossbarConfig | None = None) -> None:
        super().__init__(library, config, features=FEATURES, vt_plan=VT_PLAN)

"""Total crossbar power (Table 1 "Total Power - 3 GHz" row).

Total power is switching power plus active leakage power at the chosen
operating point.  The paper flags the pre-charged schemes' figures as
"worst case" because their switching power is maximised at 50 % static
probability; the ablation benchmark sweeps ``static_probability`` to
reproduce the paper's closing remark that DPC/SDPC "target systems which
have major data transfers within the same polarity".
:func:`~repro.power.savings.analyse_total_power` computes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PowerError

__all__ = ["TotalPowerAnalysis"]


@dataclass(frozen=True)
class TotalPowerAnalysis:
    """Total-power figures of one scheme at one operating point."""

    scheme: str
    frequency: float
    toggle_activity: float
    static_probability: float
    dynamic_power: float
    leakage_power: float

    @property
    def total(self) -> float:
        """Total power in watts."""
        return self.dynamic_power + self.leakage_power

    def saving_versus(self, baseline: "TotalPowerAnalysis") -> float:
        """Fractional total-power saving relative to ``baseline``."""
        if baseline.total <= 0:
            raise PowerError("baseline total power must be positive")
        return 1.0 - self.total / baseline.total

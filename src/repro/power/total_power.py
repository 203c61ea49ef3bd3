"""Total crossbar power (Table 1 "Total Power - 3 GHz" row).

Total power is switching power plus active leakage power at the chosen
operating point.  The paper flags the pre-charged schemes' figures as
"worst case" because their switching power is maximised at 50 % static
probability; the ablation benchmark sweeps ``static_probability`` to
reproduce the paper's closing remark that DPC/SDPC "target systems which
have major data transfers within the same polarity".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crossbar.base import CrossbarScheme
from ..errors import PowerError
from .dynamic_analysis import DynamicAnalysis, analyse_dynamic
from .leakage_analysis import LeakageAnalysis, analyse_leakage

__all__ = ["TotalPowerAnalysis", "analyse_total_power"]


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


def analyse_total_power(
    scheme: CrossbarScheme,
    toggle_activity: float = 0.5,
    static_probability: float = 0.5,
    frequency: float | None = None,
) -> TotalPowerAnalysis:
    """Evaluate switching + active leakage power for ``scheme``."""
    return _combine_total_power(
        analyse_dynamic(scheme, toggle_activity, static_probability, frequency),
        analyse_leakage(scheme, static_probability),
    )


def _combine_total_power(dynamic: DynamicAnalysis,
                         leakage: LeakageAnalysis) -> TotalPowerAnalysis:
    """Total power from a switching and a leakage analysis of the same
    scheme at the same static probability."""
    return TotalPowerAnalysis(
        scheme=dynamic.scheme,
        frequency=dynamic.frequency,
        toggle_activity=dynamic.toggle_activity,
        static_probability=dynamic.static_probability,
        dynamic_power=dynamic.power,
        leakage_power=leakage.active_power,
    )

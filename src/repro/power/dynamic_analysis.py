"""Scheme-level dynamic (switching) power analysis."""

from __future__ import annotations

from dataclasses import dataclass

from ..crossbar.base import CrossbarScheme
from ..errors import PowerError

__all__ = ["DynamicAnalysis", "analyse_dynamic"]


@dataclass(frozen=True)
class DynamicAnalysis:
    """Switching-power figures of one scheme at one operating point."""

    scheme: str
    toggle_activity: float
    static_probability: float
    frequency: float
    energy_per_cycle: float

    @property
    def power(self) -> float:
        """Average switching power (watts)."""
        return self.energy_per_cycle * self.frequency


def analyse_dynamic(
    scheme: CrossbarScheme,
    toggle_activity: float = 0.5,
    static_probability: float = 0.5,
    frequency: float | None = None,
) -> DynamicAnalysis:
    """Evaluate the switching energy/power of ``scheme``.

    ``toggle_activity`` is the probability a data bit changes between
    consecutive flits; ``static_probability`` the probability of a logic
    1 (which sets the pre-charge penalty of DPC/SDPC); ``frequency``
    defaults to the scheme's library clock (3 GHz for the paper's
    configuration).
    """
    for name, value in (("toggle_activity", toggle_activity),
                        ("static_probability", static_probability)):
        if not 0.0 <= value <= 1.0:
            raise PowerError(f"{name} must be in [0, 1], got {value}")
    clock = frequency if frequency is not None else scheme.library.clock_frequency
    if clock <= 0:
        raise PowerError("frequency must be positive")
    energy = scheme.dynamic_energy_per_cycle(toggle_activity, static_probability)
    return DynamicAnalysis(
        scheme=scheme.name,
        toggle_activity=toggle_activity,
        static_probability=static_probability,
        frequency=clock,
        energy_per_cycle=energy,
    )

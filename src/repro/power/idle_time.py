"""Minimum idle time (standby break-even) analysis.

Table 1's "Minimum Idle Time" row: the smallest number of idle cycles
for which entering standby saves more leakage energy than the standby
entry/exit transition costs.  The analysis compares

* the energy cost of one standby entry + exit
  (:meth:`~repro.crossbar.base.CrossbarScheme.sleep_transition_energy`),

against

* the leakage power saved per cycle of standby relative to idling awake
  (:meth:`~repro.crossbar.base.CrossbarScheme.standby_power_saving`).

The same numbers parameterise the NoC power-gating controller
(:mod:`repro.noc.power_gating`), which only puts a port to sleep when
the predicted idle interval exceeds this threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..circuit.dynamic import check_frequency
from ..crossbar.base import CrossbarScheme
from ..errors import PowerError

__all__ = ["IdleTimeAnalysis", "analyse_minimum_idle_time", "break_even_cycles",
           "minimum_idle_cycles"]


@dataclass(frozen=True)
class IdleTimeAnalysis:
    """Break-even figures for one scheme's standby mode."""

    scheme: str
    clock_frequency: float
    transition_energy: float
    power_saved_in_standby: float

    @property
    def clock_period(self) -> float:
        """Cycle time in seconds."""
        return 1.0 / self.clock_frequency

    @property
    def break_even_cycles(self) -> float:
        """Exact (fractional) break-even idle length in cycles."""
        return break_even_cycles(self.transition_energy, self.power_saved_in_standby,
                                 self.clock_frequency)

    @property
    def minimum_idle_cycles(self) -> int:
        """Minimum whole number of idle cycles for standby to pay off
        (see :func:`minimum_idle_cycles`)."""
        return minimum_idle_cycles(self.scheme, self.transition_energy,
                                   self.power_saved_in_standby, self.clock_frequency)


def break_even_cycles(transition_energy: float, power_saved_in_standby: float,
                      clock_frequency: float) -> float:
    """Idle cycles whose saved leakage pays for one standby entry + exit
    (``math.inf`` when standby saves nothing)."""
    energy_saved_per_cycle = power_saved_in_standby * (1.0 / clock_frequency)
    if energy_saved_per_cycle <= 0:
        return math.inf
    return transition_energy / energy_saved_per_cycle


def minimum_idle_cycles(scheme: str, transition_energy: float,
                        power_saved_in_standby: float, clock_frequency: float) -> int:
    """Minimum whole number of idle cycles for standby to pay off.

    ``math.inf`` break-evens (a scheme that saves nothing in standby)
    raise, because asking for its minimum idle time indicates a
    misconfigured experiment.
    """
    cycles = break_even_cycles(transition_energy, power_saved_in_standby, clock_frequency)
    if math.isinf(cycles):
        raise PowerError(
            f"scheme {scheme!r} saves no power in standby; minimum idle time undefined"
        )
    return max(1, math.ceil(cycles))


def analyse_minimum_idle_time(
    scheme: CrossbarScheme,
    static_probability: float = 0.5,
    frequency: float | None = None,
) -> IdleTimeAnalysis:
    """Compute the standby break-even point of ``scheme``."""
    if not scheme.has_sleep_mode:
        raise PowerError(f"scheme {scheme.name!r} has no standby mode")
    clock = frequency if frequency is not None else scheme.library.clock_frequency
    check_frequency(clock)
    return IdleTimeAnalysis(
        scheme=scheme.name,
        clock_frequency=clock,
        transition_energy=scheme.sleep_transition_energy(static_probability),
        power_saved_in_standby=scheme.standby_power_saving(static_probability),
    )

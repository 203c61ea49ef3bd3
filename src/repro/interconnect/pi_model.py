"""Lumped pi reduction of a distributed wire.

A pi model places half of the wire capacitance at each end of the total
series resistance.  It matches the first two moments of the distributed
line, which is all the Elmore-based delay analysis consumes, and gives
the delay layer a closed-form expression for a wire.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TechnologyError
from ..units import LN2

__all__ = ["PiModel"]


@dataclass(frozen=True)
class PiModel:
    """The C/2 - R - C/2 lumped equivalent of a wire."""

    near_capacitance: float
    resistance: float
    far_capacitance: float

    def __post_init__(self) -> None:
        if self.near_capacitance < 0 or self.far_capacitance < 0:
            raise TechnologyError("pi-model capacitances cannot be negative")
        if self.resistance < 0:
            raise TechnologyError("pi-model resistance cannot be negative")

    @property
    def total_capacitance(self) -> float:
        """Total wire capacitance (farads)."""
        return self.near_capacitance + self.far_capacitance

    def floats(self) -> tuple[float, float, float]:
        """``(near_capacitance, resistance, far_capacitance)``: the form
        :meth:`driver_stage_delay_of_floats` and :meth:`cascade_of_floats`
        read."""
        return self.near_capacitance, self.resistance, self.far_capacitance

    @staticmethod
    def driver_stage_delay_of_floats(pi: tuple[float, float, float], driver_resistance: float,
                                     load_capacitance: float) -> float:
        """50 % delay of a driver pushing through the pi ``pi`` (its
        :meth:`floats`) into a load.

        Closed form: ``0.69 Rd (Cn + Cf + CL) + 0.69 R (Cf + CL)``; the
        near capacitance never sees the wire resistance.  Unvalidated:
        the caller checks the driver resistance and the load are
        non-negative (:func:`repro.timing.stage_delay` does).
        """
        near_capacitance, resistance, far_capacitance = pi
        return LN2 * (
            driver_resistance * (near_capacitance + far_capacitance + load_capacitance)
            + resistance * (far_capacitance + load_capacitance)
        )

    @staticmethod
    def cascade_of_floats(first: tuple[float, float, float],
                          second: tuple[float, float, float]) -> tuple[float, float, float]:
        """The :meth:`floats` of ``first`` followed immediately by ``second``.

        The merge keeps total R and C exact and the boundary capacitance
        split between the two sides, which preserves the Elmore delay of
        the cascade.  Non-negative inputs give a non-negative result, so
        it needs no validation of its own.
        """
        near_capacitance, resistance, far_capacitance = first
        second_near, second_resistance, second_far = second
        return (near_capacitance, resistance + second_resistance,
                far_capacitance + (second_near + second_far))

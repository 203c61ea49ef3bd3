"""Physical wires: geometry-bound RC segments.

A :class:`Wire` binds a length and a layer's per-unit-length electrical
model into the quantities the delay and power analyses need: total R and
C and lumped pi models.

Wires are immutable, so each computes its R, C and pi model once, and
:meth:`Wire.on_layer` shares one wire per (length, layer, neighbours)
within a technology library: the input, row and output wires of every
scheme built on one crossbar geometry are the same object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import TechnologyError
from ..technology.bptm import WireElectricalModel
from ..technology.library import TechnologyLibrary
from .pi_model import PiModel

__all__ = ["Wire"]

#: Bound on one library's shared wires; a sweep over more distinct
#: lengths clears the memo rather than growing it.
_WIRE_MEMO_ENTRIES = 256


@dataclass(frozen=True)
class Wire:
    """A single wire of a given length on a given layer.

    Attributes
    ----------
    length:
        Routed length in metres.
    model:
        Per-unit-length electrical model of the layer the wire runs on.
    neighbours:
        Number of same-layer aggressors (0-2) used for the capacitance
        roll-up; crossbar datapath wires run in a dense bus so the
        default is 2.
    """

    length: float
    model: WireElectricalModel
    neighbours: int = 2

    def __post_init__(self) -> None:
        if self.length < 0:
            raise TechnologyError(f"wire length cannot be negative, got {self.length}")
        if self.neighbours not in (0, 1, 2):
            raise TechnologyError("neighbours must be 0, 1 or 2")

    @classmethod
    def on_layer(cls, library: TechnologyLibrary, length: float, layer: str = "intermediate",
                 neighbours: int = 2) -> "Wire":
        """The wire of ``length`` on ``layer`` of a technology library,
        shared with every earlier request for the same wire."""
        model = library.wire_model(layer)
        memo = library.wire_memo
        key = (length, layer, neighbours)
        wire = memo.get(key)
        if wire is None or wire.model is not model:
            wire = cls(length=length, model=model, neighbours=neighbours)
            if len(memo) >= _WIRE_MEMO_ENTRIES:
                memo.clear()
            memo[key] = wire
        return wire

    # -- electrical totals -------------------------------------------------------
    @cached_property
    def resistance(self) -> float:
        """Total series resistance (ohms)."""
        return self.model.resistance(self.length)

    @cached_property
    def capacitance(self) -> float:
        """Total capacitance with quiet neighbours (farads)."""
        return self.model.capacitance(self.length, self.neighbours)

    # -- reduced-order views --------------------------------------------------------
    def pi_model(self) -> PiModel:
        """Symmetric pi reduction (C/2 - R - C/2)."""
        return self._pi_model

    @cached_property
    def _pi_model(self) -> PiModel:
        return PiModel(
            near_capacitance=self.capacitance / 2.0,
            resistance=self.resistance,
            far_capacitance=self.capacitance / 2.0,
        )

    def split(self, fractions: list[float]) -> list["Wire"]:
        """Split this wire into consecutive pieces of the given length fractions.

        Used by the segmented schemes: a crossbar output wire becomes a
        near segment and a far segment.  Fractions must be positive and
        sum to 1 (within rounding).
        """
        if not fractions:
            raise TechnologyError("at least one fraction is required")
        if any(fraction <= 0 for fraction in fractions):
            raise TechnologyError("all split fractions must be positive")
        total = sum(fractions)
        if abs(total - 1.0) > 1e-9:
            raise TechnologyError(f"split fractions must sum to 1, got {total}")
        return [
            Wire(length=self.length * fraction, model=self.model, neighbours=self.neighbours)
            for fraction in fractions
        ]

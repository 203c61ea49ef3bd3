"""Wire segmentation helpers for the SDFC/SDPC schemes.

Figure 3 of the paper splits the crossbar into a near region (path 1)
and a far region (path 2): the output wire is broken into segments, each
with its own sleep (and, for SDPC, pre-charge) control, and a signal
only traverses the segments between its input column and the output
driver.  The benefits are

* the average switched wire capacitance drops (dynamic power),
* the near-segment paths gain slack that the Vt assignment converts to
  high-Vt devices (active leakage), and
* an idle far segment can be put into standby even while the near
  segment is still carrying traffic (standby leakage).

This module owns the geometric bookkeeping: how a wire of a given length
is divided, which inputs map to which segment, and what fraction of
traffic only needs the near segment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CrossbarError
from .wire import Wire

__all__ = ["SegmentationPlan", "SegmentedWire"]


@dataclass(frozen=True)
class SegmentationPlan:
    """How a crossbar output wire is divided into segments.

    Attributes
    ----------
    segment_count:
        Number of segments (the paper's Fig. 3 uses two).
    near_fraction:
        Fraction of the wire length in the near (path 1) segment.
    inputs_on_near_segment:
        Number of crossbar input columns whose crosspoints attach to the
        near segment.
    total_inputs:
        Total number of input columns attached to the output wire.
    """

    segment_count: int = 2
    near_fraction: float = 0.5
    inputs_on_near_segment: int = 2
    total_inputs: int = 4

    def __post_init__(self) -> None:
        if self.segment_count < 2:
            raise CrossbarError("a segmented wire needs at least two segments")
        if not 0.0 < self.near_fraction < 1.0:
            raise CrossbarError("near fraction must be strictly between 0 and 1")
        if not 0 < self.inputs_on_near_segment < self.total_inputs:
            raise CrossbarError(
                "the near segment must host at least one input and leave at least one for the far segment"
            )

    @property
    def far_fraction(self) -> float:
        """Fraction of wire length in the far (path 2) region."""
        return 1.0 - self.near_fraction

    @property
    def near_traffic_fraction(self) -> float:
        """Probability a uniformly chosen input only uses the near segment."""
        return self.inputs_on_near_segment / self.total_inputs


@dataclass(frozen=True)
class SegmentedWire:
    """A wire divided into a near and a far segment."""

    near: Wire
    far: Wire
    plan: SegmentationPlan

    @classmethod
    def from_wire(cls, wire: Wire, plan: SegmentationPlan) -> "SegmentedWire":
        """Divide ``wire`` according to ``plan``."""
        near, far = wire.split([plan.near_fraction, plan.far_fraction])
        return cls(near=near, far=far, plan=plan)

    @property
    def total_resistance(self) -> float:
        """Series resistance of both segments (ohms)."""
        return self.near.resistance + self.far.resistance

    @property
    def total_capacitance(self) -> float:
        """Total capacitance of both segments (farads)."""
        return self.near.capacitance + self.far.capacitance

    def average_switched_capacitance(self) -> float:
        """Traffic-weighted switched capacitance per transfer (farads)."""
        near_only = self.near.capacitance
        full = self.total_capacitance
        near_traffic = self.plan.near_traffic_fraction
        return near_traffic * near_only + (1.0 - near_traffic) * full

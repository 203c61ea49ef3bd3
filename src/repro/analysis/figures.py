"""Figure-content extraction.

The paper's three figures are circuit schematics, so "reproducing" them
means reproducing the quantitative content they encode rather than a
drawing: the device inventory and Vt partition of one output path
(Figs. 1 and 2) and the path-1 / path-2 asymmetry of the segmented
designs (Fig. 3).  The helpers here turn a scheme into those summaries;
the figure benchmarks print and sanity-check them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..circuit.devices import DeviceRole
from ..crossbar.base import CrossbarScheme
from ..crossbar.frame import merge_delay
from ..errors import ConfigurationError, ReproError
from ..technology.transistor import VtFlavor
from .table import render_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..engine.resultset import ResultSet

__all__ = ["OutputPathStructure", "SegmentationStructure", "describe_output_path",
           "describe_segmentation", "sweep_table"]


@dataclass(frozen=True)
class OutputPathStructure:
    """Structural summary of one output path (Figure 1 / Figure 2 content)."""

    scheme: str
    device_count: int
    pass_transistor_count: int
    has_keeper: bool
    has_precharge: bool
    has_sleep: bool
    high_vt_count: int
    nominal_vt_count: int
    high_vt_roles: tuple[str, ...]

    @property
    def high_vt_fraction(self) -> float:
        """Fraction of the path's devices that are high-Vt."""
        if self.device_count == 0:
            return 0.0
        return self.high_vt_count / self.device_count


@dataclass(frozen=True)
class SegmentationStructure:
    """Path-1 / path-2 summary of a segmented scheme (Figure 3 content)."""

    scheme: str
    near_inputs: int
    far_inputs: int
    near_wire_resistance: float
    near_wire_capacitance: float
    far_wire_resistance: float
    far_wire_capacitance: float
    near_path_delay: float
    far_path_delay: float

    @property
    def near_path_slack_fraction(self) -> float:
        """Fraction of the far-path delay that the near path does not need."""
        return 1.0 - self.near_path_delay / self.far_path_delay


def describe_output_path(scheme: CrossbarScheme) -> OutputPathStructure:
    """Summarise the structure of one output path of ``scheme``."""
    statistics = scheme.single_bit_statistics
    high_vt_roles = sorted(
        {
            role.value
            for device, role, count in scheme.output_path_inventory()
            if device.vt_flavor is VtFlavor.HIGH and count > 0
        }
    )
    return OutputPathStructure(
        scheme=scheme.name,
        device_count=statistics.device_count,
        pass_transistor_count=statistics.count_by_role.get(DeviceRole.PASS_TRANSISTOR, 0),
        has_keeper=statistics.count_by_role.get(DeviceRole.KEEPER, 0) > 0,
        has_precharge=statistics.count_by_role.get(DeviceRole.PRECHARGE, 0) > 0,
        has_sleep=statistics.count_by_role.get(DeviceRole.SLEEP, 0) > 0,
        high_vt_count=statistics.count_by_flavor.get(VtFlavor.HIGH, 0),
        nominal_vt_count=statistics.count_by_flavor.get(VtFlavor.NOMINAL, 0),
        high_vt_roles=tuple(high_vt_roles),
    )


def sweep_table(results: "ResultSet", schemes: Sequence[str], metric: str,
                axis: str | None = None, title: str | None = None) -> str:
    """Render one metric of a design-space :class:`~repro.engine.ResultSet`
    as a scheme-by-axis-value text table (the design-space "figure").

    The result set must vary only ``axis``: a multi-parameter set must be
    sliced with :meth:`~repro.engine.ResultSet.filter` first, so every
    column of the table is one well-defined design point.  ``axis``
    accepts any spelling the result set resolves — dotted config paths
    (``"crossbar.port_count"``) included.
    """
    if not schemes:
        raise ConfigurationError("sweep_table needs at least one scheme")
    if axis is None:
        if len(results.parameters) != 1:
            raise ConfigurationError(
                f"sweep_table needs an explicit axis when the result set "
                f"varies {results.parameters}"
            )
        axis = results.parameters[0]
    axis = results.resolve_parameter(axis)
    for other in results.parameters:
        if other == axis:
            continue
        values = results.axis_values(other)
        if len(values) > 1:
            raise ConfigurationError(
                f"parameter {other!r} still takes {len(values)} values; "
                f"filter() the result set down to one before tabulating"
            )
    pairs_by_scheme = {
        scheme: results.series(scheme, metric, axis=axis) for scheme in schemes
    }
    axis_values = [value for value, _ in next(iter(pairs_by_scheme.values()))]
    headers = ["scheme"] + [str(value) for value in axis_values]
    rows = [[scheme] + [value for _, value in pairs_by_scheme[scheme]]
            for scheme in schemes]
    return render_table(headers, rows, title=title or f"{metric} vs {axis}")


def describe_segmentation(scheme: CrossbarScheme) -> SegmentationStructure:
    """Summarise the path-1 / path-2 structure of a segmented scheme: its
    frame's segmented row and the near and far merge stages of the
    scheme's flat pass (:func:`~repro.crossbar.frame.merge_delay`)."""
    if not scheme.features.segmented:
        raise ReproError(f"scheme {scheme.name!r} is not segmented")
    view = scheme.view
    segments = view.frame.segments
    near, far = segments.row.near, segments.row.far
    return SegmentationStructure(
        scheme=scheme.name,
        near_inputs=segments.near_inputs,
        far_inputs=segments.far_inputs,
        near_wire_resistance=near.resistance,
        near_wire_capacitance=near.capacitance,
        far_wire_resistance=far.resistance,
        far_wire_capacitance=far.capacitance,
        near_path_delay=merge_delay(view, falling=True, far_path=False),
        far_path_delay=merge_delay(view, falling=True, far_path=True),
    )

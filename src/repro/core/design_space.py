"""Design-space exploration helpers (legacy single-parameter API).

The paper fixes one design point; a downstream user adopting these
crossbars will immediately ask how the conclusions move with technology
node, temperature, corner, flit width or crossbar radix.  This module
keeps the original one-parameter ``sweep_parameter`` API, which returns
a live :class:`~repro.core.comparison.SchemeComparison` per point.  The
grid comes from :mod:`repro.engine`, which generalises it to full grids,
caching and parallel execution over plain records — new code should use
the engine directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.grid import SWEEPABLE_FIELDS
from ..engine.grid import DesignSpace as _DesignSpace
from ..errors import ConfigurationError
from .comparison import SchemeComparison, compare_schemes
from .config import ExperimentConfig

__all__ = ["SweepPoint", "DesignSpaceResult", "sweep_parameter"]

#: Legacy alias; the engine owns the canonical table.
_SWEEPABLE_FIELDS = SWEEPABLE_FIELDS


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep."""

    parameter: str
    value: object
    comparison: SchemeComparison


@dataclass
class DesignSpaceResult:
    """All points of one sweep."""

    parameter: str
    points: list[SweepPoint] = field(default_factory=list)

    def series(self, scheme: str, metric: str) -> list[tuple[object, float]]:
        """Extract (parameter value, metric) pairs for one scheme.

        ``metric`` is any key of the comparison records (e.g.
        ``"total_power_mw"`` or ``"active_leakage_saving_percent"``).
        """
        result: list[tuple[object, float]] = []
        for point in self.points:
            records = {record["scheme"]: record for record in point.comparison.as_records()}
            if scheme not in records:
                raise ConfigurationError(f"scheme {scheme!r} missing from sweep point")
            if metric not in records[scheme]:
                raise ConfigurationError(f"unknown metric {metric!r}")
            result.append((point.value, float(records[scheme][metric])))
        return result


def sweep_parameter(
    parameter: str,
    values: list[object],
    base_config: ExperimentConfig | None = None,
    scheme_names: list[str] | None = None,
) -> DesignSpaceResult:
    """Run the full scheme comparison for every value of ``parameter``.

    Every point keeps its live
    :class:`~repro.core.comparison.SchemeComparison` from
    :func:`~repro.core.comparison.compare_schemes`; the points are
    materialised (and validated) before any is evaluated.  ``parameter``
    may be a flat field, a dotted config path (``"crossbar.port_count"``)
    or an unambiguous alias; the result reports the name as given.
    """
    space = _DesignSpace.single_sweep(parameter, values)
    canonical = space.parameters[0]
    configs = space.configs(base_config)
    result = DesignSpaceResult(parameter=parameter)
    for point, config in zip(space.points(), configs):
        result.points.append(SweepPoint(
            parameter=parameter,
            value=point.overrides[canonical],
            comparison=compare_schemes(config, scheme_names=scheme_names),
        ))
    return result

"""Design-space grids: Cartesian products and explicit point lists.

A :class:`DesignSpace` describes *which* experiment configurations to
evaluate, independently of *how* they are evaluated (that is the
evaluator's and executor's job).  Grids are fully materialised with a
deterministic ordering — row-major over the axes in the order given,
last axis fastest — so results can be cached, fanned out across
processes and reassembled without ambiguity.

Axes are named by config path: the flat ``ExperimentConfig`` scalars
(``"temperature_celsius"``), dotted paths into the nested structure
(``"crossbar.port_count"``), or any unambiguous leaf alias
(``"port_count"``).  Names are normalised to canonical paths at
construction, so a grid built from an alias and one built from the
dotted path are the same design space.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..core.config import ExperimentConfig
from ..core.paths import normalize_path
from ..errors import ConfigurationError

__all__ = ["GridPoint", "DesignSpace"]


def _canonical_parameter(name: str) -> str:
    """Resolve one axis name (flat field, dotted path, or alias) to its
    canonical config path, rejecting unknown names."""
    return normalize_path(name)


@dataclass(frozen=True)
class GridPoint:
    """One point of a design space: a set of field overrides.

    ``items`` is a tuple of ``(field, value)`` pairs in the design
    space's parameter order, so points are hashable and their identity
    is deterministic.
    """

    index: int
    items: tuple[tuple[str, object], ...]

    @property
    def overrides(self) -> dict[str, object]:
        """The overrides as a plain dict."""
        return dict(self.items)

    def config(self, base: ExperimentConfig) -> ExperimentConfig:
        """Apply this point's overrides to ``base``."""
        return base.with_overrides(**self.overrides)


@dataclass(frozen=True)
class DesignSpace:
    """An ordered, finite set of experiment points over sweepable fields."""

    parameters: tuple[str, ...]
    point_values: tuple[tuple[object, ...], ...]

    @classmethod
    def grid(cls, axes: Mapping[str, Sequence[object]]) -> "DesignSpace":
        """Full Cartesian product of ``axes``.

        Ordering is row-major over the axes in the order given (the
        last axis varies fastest), matching nested for-loops over the
        axis values.
        """
        if not axes:
            raise ConfigurationError("a design-space grid needs at least one axis")
        materialised: dict[str, tuple[object, ...]] = {}
        for name, values in axes.items():
            canonical = _canonical_parameter(name)
            if canonical in materialised:
                raise ConfigurationError(
                    f"axis {name!r} duplicates config path {canonical!r}"
                )
            materialised[canonical] = tuple(values)
        for name, values in materialised.items():
            if not values:
                raise ConfigurationError(f"axis {name!r} needs at least one value")
        parameters = tuple(materialised)
        combos = tuple(itertools.product(*(materialised[name] for name in parameters)))
        return cls(parameters=parameters, point_values=combos)

    @classmethod
    def from_points(cls, points: Sequence[Mapping[str, object]]) -> "DesignSpace":
        """An explicit list of points, all over the same parameter set.

        Points may list their parameters in any order; the space takes
        the first point's order.
        """
        if not points:
            raise ConfigurationError("a design space needs at least one point")
        given = tuple(points[0])
        given_set = set(given)
        parameters = tuple(_canonical_parameter(name) for name in given)
        if len(set(parameters)) != len(parameters):
            raise ConfigurationError(
                f"point parameters {given} resolve to duplicate config "
                f"paths {parameters}"
            )
        values = []
        for point in points:
            if point.keys() != given_set:
                raise ConfigurationError(
                    f"every point must set the same parameters {given}, "
                    f"got {tuple(point)}"
                )
            values.append(tuple(point[name] for name in given))
        return cls(parameters=parameters, point_values=tuple(values))

    @classmethod
    def single_sweep(cls, parameter: str, values: Sequence[object]) -> "DesignSpace":
        """One-axis grid."""
        return cls.grid({parameter: values})

    def __len__(self) -> int:
        return len(self.point_values)

    def points(self) -> list[GridPoint]:
        """All points, in deterministic grid order."""
        return [
            GridPoint(index=i, items=tuple(zip(self.parameters, values)))
            for i, values in enumerate(self.point_values)
        ]

    def configs(self, base: ExperimentConfig | None = None) -> list[ExperimentConfig]:
        """Materialise every point as an :class:`ExperimentConfig`.

        Invalid values (e.g. a static probability outside ``[0, 1]``)
        surface here, before any evaluation is fanned out.
        """
        base_config = base if base is not None else ExperimentConfig()
        return [point.config(base_config) for point in self.points()]

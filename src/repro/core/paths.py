"""Dotted config paths over the nested experiment dataclass tree.

An :class:`~repro.core.config.ExperimentConfig` is a tree of frozen
dataclasses — six top-level scalars and a nested
:class:`~repro.crossbar.ports.CrossbarConfig`.  The design-space layers
address any leaf of that tree by a dotted path such as
``"crossbar.port_count"``:

* :func:`get_path` / :func:`set_path` read and functionally update one
  leaf (``set_path`` returns a new config; nothing is mutated);
* :func:`sweepable_paths` enumerates every leaf the engine may sweep,
  derived from the dataclass tree itself rather than a hand-kept list;
* :func:`normalize_path` resolves user-facing spellings — canonical
  dotted paths, the historical flat top-level names, and unambiguous
  leaf aliases (``"port_count"`` → ``"crossbar.port_count"``) — to one
  canonical form, so grids, caches and result sets agree on identity;
* :func:`describe_path` explains what varying a path exercises.

The module is deliberately generic: it walks ``dataclasses.fields`` and
never imports the config classes at module level, so the config layer
can import it without cycles.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterator

from ..errors import ConfigurationError

__all__ = [
    "PATH_SEPARATOR",
    "get_path",
    "set_path",
    "describe_path",
    "normalize_path",
    "sweepable_paths",
    "path_aliases",
    "path_registry_records",
    "leaf_layout",
]

PATH_SEPARATOR = "."

#: Curated notes on what sweeping a path exercises.  Paths without an
#: entry fall back to a generated "<Owner> field" note; the six original
#: flat fields keep their PR-1 wording verbatim.
_PATH_NOTES: dict[str, str] = {
    "technology_node": "roadmap scaling of wires and devices",
    "temperature_celsius": "leakage's exponential temperature dependence",
    "corner": "process spread",
    "clock_frequency": "how much slack the timing budget leaves for high Vt",
    "static_probability": "data polarity (the pre-charged schemes' weak spot)",
    "toggle_activity": "switching intensity",
    "crossbar.port_count": "crossbar radix, 2-64 (crosspoints grow quadratically)",
    "crossbar.flit_width": "datapath width, 1-1024 bits (wire spans scale with it)",
    "crossbar.layout_overhead": "wiring density margin on the crossbar span",
    "crossbar.wire_layer": "metal layer of the crossbar wires",
    "crossbar.timing_budget_fraction": "share of the cycle the crossbar may use",
}


def _is_config_node(value: object) -> bool:
    """True for dataclass *instances* (the interior nodes of the tree)."""
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


def _check_field(node: object, segment: str, path: str) -> None:
    """Raise unless ``node`` is a nested config with a field ``segment``."""
    if not _is_config_node(node):
        raise ConfigurationError(
            f"config path {path!r} descends into {type(node).__name__!r}, "
            "which is not a nested config"
        )
    if not any(field.name == segment for field in dataclasses.fields(node)):
        raise ConfigurationError(
            f"unknown config path {path!r}: {type(node).__name__} "
            f"has no field {segment!r}"
        )


def get_path(config: object, path: str) -> object:
    """Read the leaf (or sub-config) at ``path`` of ``config``."""
    node = config
    for segment in path.split(PATH_SEPARATOR):
        _check_field(node, segment, path)
        node = getattr(node, segment)
    return node


def set_path(config, path: str, value: object):
    """Return a copy of ``config`` with the leaf at ``path`` replaced.

    Every dataclass on the way is rebuilt with ``dataclasses.replace``,
    so all ``__post_init__`` validation re-runs.
    """
    segments = path.split(PATH_SEPARATOR)

    def rebuild(node, depth: int):
        segment = segments[depth]
        _check_field(node, segment, path)
        if depth == len(segments) - 1:
            return dataclasses.replace(node, **{segment: value})
        child = getattr(node, segment)
        return dataclasses.replace(node, **{segment: rebuild(child, depth + 1)})

    return rebuild(config, 0)


# ---------------------------------------------------------------------------
# registry: every sweepable leaf of the experiment tree
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, str] | None = None
_ALIASES: dict[str, str] | None = None


def _walk_leaves(node: object, prefix: str) -> Iterator[tuple[str, object]]:
    """Yield ``(path, owning node)`` for every leaf under ``node``, in
    field order."""
    for field in dataclasses.fields(node):
        path = f"{prefix}{field.name}"
        child = getattr(node, field.name)
        if _is_config_node(child):
            yield from _walk_leaves(child, path + PATH_SEPARATOR)
        else:
            yield path, node


@functools.cache
def leaf_layout() -> tuple[tuple[str, object], ...]:
    """Every sweepable leaf as ``(path, default)``, in registry order
    (the order of :func:`sweepable_paths`).

    ``default`` is the leaf's value on a fresh
    :class:`~repro.core.config.ExperimentConfig`.  Walked once per
    process.
    """
    # Imported here, not at module level: config.py imports this module.
    from .config import ExperimentConfig

    return tuple(
        (path, getattr(owner, path.rsplit(PATH_SEPARATOR, 1)[-1]))
        for path, owner in _walk_leaves(ExperimentConfig(), "")
    )


def _build_registry() -> tuple[dict[str, str], dict[str, str]]:
    from .config import ExperimentConfig

    registry: dict[str, str] = {}
    leaf_owner_counts: dict[str, list[str]] = {}
    for path, owner in _walk_leaves(ExperimentConfig(), ""):
        note = _PATH_NOTES.get(path)
        if note is None:
            note = f"{type(owner).__name__} field"
        registry[path] = note
        leaf = path.rsplit(PATH_SEPARATOR, 1)[-1]
        leaf_owner_counts.setdefault(leaf, []).append(path)
    # A bare leaf name aliases its path when that spelling is not already
    # a canonical (top-level) path and exactly one leaf bears the name.
    aliases = {
        leaf: paths[0]
        for leaf, paths in leaf_owner_counts.items()
        if leaf not in registry and len(paths) == 1
    }
    return registry, aliases


def _registry() -> dict[str, str]:
    global _REGISTRY, _ALIASES
    if _REGISTRY is None:
        _REGISTRY, _ALIASES = _build_registry()
    return _REGISTRY


def sweepable_paths() -> dict[str, str]:
    """Every sweepable config path mapped to a one-line note.

    Derived from the dataclass tree, so a field added to any nested
    config becomes sweepable without touching the engine.
    """
    return dict(_registry())


def path_aliases() -> dict[str, str]:
    """Accepted shorthand spellings mapped to their canonical paths."""
    _registry()
    assert _ALIASES is not None
    return dict(_ALIASES)


def normalize_path(name: str) -> str:
    """Resolve ``name`` to its canonical dotted path.

    Canonical paths (including the historical flat top-level names,
    which are their own canonical form) pass through unchanged; a bare
    leaf name that unambiguously identifies one nested field is expanded
    (``"port_count"`` → ``"crossbar.port_count"``).  Anything else
    raises :class:`~repro.errors.ConfigurationError` listing the
    sweepable fields.
    """
    registry = _registry()
    if name in registry:
        return name
    assert _ALIASES is not None
    alias = _ALIASES.get(name)
    if alias is not None:
        return alias
    known = ", ".join(sorted(registry))
    raise ConfigurationError(f"cannot sweep {name!r}; sweepable fields: {known}")


def describe_path(path: str) -> str:
    """One-line note on what varying ``path`` exercises."""
    return _registry()[normalize_path(path)]


def path_registry_records() -> list[dict]:
    """JSON-safe records of every sweepable path, in tree order.

    Each record carries the canonical ``path``, its ``note`` (from
    :func:`describe_path`), any accepted alias spellings and the default
    value on a fresh :class:`~repro.core.config.ExperimentConfig`.  This
    is the single source for the
    generated ``docs/config_paths.md`` and the evaluation service's
    ``GET /paths`` endpoint, so the two can never drift apart.
    """
    aliases_by_path: dict[str, list[str]] = {}
    for alias, target in path_aliases().items():
        aliases_by_path.setdefault(target, []).append(alias)
    registry = _registry()
    records = []
    for path, default in leaf_layout():
        note = registry[path]
        if not isinstance(default, (bool, int, float, str, type(None))):
            default = repr(default)
        records.append({
            "path": path,
            "note": note,
            "aliases": sorted(aliases_by_path.get(path, [])),
            "default": default,
        })
    return records

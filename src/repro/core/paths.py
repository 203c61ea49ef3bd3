"""Dotted config paths over the nested experiment dataclass tree.

An :class:`~repro.core.config.ExperimentConfig` is a tree of frozen
dataclasses — six top-level scalars, a nested
:class:`~repro.crossbar.ports.CrossbarConfig`, and an optional
:class:`~repro.noc.noc_power.NocPowerConfig` (itself nesting a
:class:`~repro.noc.power_gating.GatingPolicy`).  The design-space layers
address any leaf of that tree by a dotted path such as
``"crossbar.port_count"`` or ``"noc.gating_policy.wakeup_cycles"``:

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
can import it without cycles.  Optional sub-configs that default to
``None`` (the ``noc`` branch) declare a ``subconfig_factory`` in their
field metadata; ``set_path`` instantiates the default sub-config on
first write and ``get_path`` reads defaults through the same factory.
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
    "crossbar.port_count": "crossbar radix (crosspoints grow quadratically)",
    "crossbar.flit_width": "datapath width (wire spans scale with it)",
    "crossbar.input_buffer_depth": "router input buffer depth (buffer leakage share)",
    "crossbar.layout_overhead": "wiring density margin on the crossbar span",
    "crossbar.wire_layer": "metal layer of the crossbar wires",
    "crossbar.timing_budget_fraction": "share of the cycle the crossbar may use",
    "noc.buffer_depth": "network power model's buffer depth override",
    "noc.link_length": "inter-router link length (link switching energy)",
    "noc.bit_cell_width": "buffer bit-cell device width (buffer leakage)",
    "noc.gating_policy.idle_detect_cycles": "sleep-entry timeout of the gating policy",
    "noc.gating_policy.wakeup_cycles": "wake-up latency of the gating policy",
    "noc.mesh_columns": "mesh width of the simulated network",
    "noc.mesh_rows": "mesh height of the simulated network",
    "noc.injection_rate": "offered load (flits/node/cycle) of the simulated traffic",
    "noc.traffic_pattern": "spatial traffic pattern (uniform, transpose, bit_complement, hotspot)",
    "noc.traffic_seed": "traffic generator seed (simulations are reproducible per seed)",
    "noc.traffic_burst_on_fraction": "on/off burstiness (1.0 = steady; lower = longer idle bursts)",
    "noc.traffic_burst_phase_length": "average burst phase length in cycles",
    "noc.simulation_cycles": "measured simulation length in cycles",
    "noc.warmup_cycles": "cycles discarded before measurement starts",
}

#: Suffix appended to paths that feed the *network-level* power model
#: (NocPowerModel) rather than the per-scheme Table-1 comparison — a
#: sweep over them produces distinct configs/cache entries but identical
#: comparison records, which would otherwise read as "no effect".
_NETWORK_LEVEL_NOTE = " [network-level: feeds NocPowerModel, not the Table-1 records]"


def _is_network_level(path: str) -> bool:
    return path.startswith("noc" + PATH_SEPARATOR) or path == "crossbar.input_buffer_depth"


def _is_config_node(value: object) -> bool:
    """True for dataclass *instances* (the interior nodes of the tree)."""
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


def _prototype_child(owner: object, field: dataclasses.Field) -> object:
    """The value of ``field`` on ``owner``, instantiating an optional
    sub-config from its declared factory when unset."""
    value = getattr(owner, field.name)
    if value is None:
        factory = field.metadata.get("subconfig_factory")
        if factory is not None:
            return factory()
    return value


def _fields_by_name(node: object, path: str) -> dict[str, dataclasses.Field]:
    if not _is_config_node(node):
        raise ConfigurationError(
            f"config path {path!r} descends into {type(node).__name__!r}, "
            "which is not a nested config"
        )
    return {field.name: field for field in dataclasses.fields(node)}


def get_path(config: object, path: str) -> object:
    """Read the leaf (or sub-config) at ``path`` of ``config``.

    Unset optional sub-configs are read through their default factory,
    so ``get_path(config, "noc.link_length")`` answers the value the
    model would use even before the ``noc`` branch is materialised.
    """
    node = config
    segments = path.split(PATH_SEPARATOR)
    for depth, segment in enumerate(segments):
        fields = _fields_by_name(node, path)
        if segment not in fields:
            raise ConfigurationError(
                f"unknown config path {path!r}: {type(node).__name__} "
                f"has no field {segment!r}"
            )
        if depth == len(segments) - 1:
            return getattr(node, segment)
        node = _prototype_child(node, fields[segment])
    return node


def set_path(config, path: str, value: object):
    """Return a copy of ``config`` with the leaf at ``path`` replaced.

    Every dataclass on the way is rebuilt with ``dataclasses.replace``,
    so all ``__post_init__`` validation re-runs; an unset optional
    sub-config (``noc``) is instantiated from its default factory before
    the leaf is applied.
    """
    segments = path.split(PATH_SEPARATOR)

    def rebuild(node, depth: int):
        segment = segments[depth]
        fields = _fields_by_name(node, path)
        if segment not in fields:
            raise ConfigurationError(
                f"unknown config path {path!r}: {type(node).__name__} "
                f"has no field {segment!r}"
            )
        if depth == len(segments) - 1:
            return dataclasses.replace(node, **{segment: value})
        child = getattr(node, segment)
        if child is None:
            factory = fields[segment].metadata.get("subconfig_factory")
            if factory is None:
                raise ConfigurationError(
                    f"config path {path!r} descends into unset field "
                    f"{segment!r} with no default sub-config"
                )
            child = factory()
        return dataclasses.replace(node, **{segment: rebuild(child, depth + 1)})

    return rebuild(config, 0)


# ---------------------------------------------------------------------------
# registry: every sweepable leaf of the experiment tree
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, str] | None = None
_ALIASES: dict[str, str] | None = None


def _walk_leaves(node: object, prefix: str, branch: str | None = None
                 ) -> Iterator[tuple[str, object, str | None]]:
    """Yield ``(path, owning node, optional branch)`` for every leaf under
    ``node``, in field order.  ``branch`` is the path of the outermost
    optional sub-config (one declaring a ``subconfig_factory``) the leaf
    lies under, or ``None``."""
    for field in dataclasses.fields(node):
        path = f"{prefix}{field.name}"
        child = _prototype_child(node, field)
        if _is_config_node(child):
            if branch is None and "subconfig_factory" in field.metadata:
                yield from _walk_leaves(child, path + PATH_SEPARATOR, path)
            else:
                yield from _walk_leaves(child, path + PATH_SEPARATOR, branch)
        else:
            yield path, node, branch


@functools.cache
def leaf_layout() -> tuple[tuple[str, object, str | None], ...]:
    """Every sweepable leaf as ``(path, default, optional branch)``, in
    registry order (the order of :func:`sweepable_paths`).

    ``default`` is the leaf's value on a fresh
    :class:`~repro.core.config.ExperimentConfig` (read through the
    default factory for an unset optional branch); ``optional branch``
    is the path of the optional sub-config the leaf lies under (``"noc"``
    for every ``noc.*`` leaf) or ``None``.  Walked once per process.
    """
    # Imported here, not at module level: config.py imports this module.
    from .config import ExperimentConfig

    return tuple(
        (path, getattr(owner, path.rsplit(PATH_SEPARATOR, 1)[-1]), branch)
        for path, owner, branch in _walk_leaves(ExperimentConfig(), "")
    )


def _build_registry() -> tuple[dict[str, str], dict[str, str]]:
    from .config import ExperimentConfig

    registry: dict[str, str] = {}
    leaf_owner_counts: dict[str, list[str]] = {}
    for path, owner, _ in _walk_leaves(ExperimentConfig(), ""):
        note = _PATH_NOTES.get(path)
        if note is None:
            note = f"{type(owner).__name__} field"
        if _is_network_level(path):
            note += _NETWORK_LEVEL_NOTE
        registry[path] = note
        leaf = path.rsplit(PATH_SEPARATOR, 1)[-1]
        leaf_owner_counts.setdefault(leaf, []).append(path)
    # A bare leaf name aliases its path when that spelling is not already
    # a canonical (top-level) path, exactly one leaf bears the name, and
    # the target affects the scheme comparison.  Network-level paths get
    # no shorthand: a user typing "buffer_depth" and silently landing on
    # the NocPowerModel knob would read the resulting flat Table-1 series
    # as "no effect" — those paths must be spelled out (and their notes
    # say what they feed).
    aliases = {
        leaf: paths[0]
        for leaf, paths in leaf_owner_counts.items()
        if leaf not in registry and len(paths) == 1
        and not _is_network_level(paths[0])
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
    :func:`describe_path`), any accepted alias spellings, the default
    value on a fresh :class:`~repro.core.config.ExperimentConfig`, and
    whether the path is network-level (feeds the NoC power model rather
    than the Table-1 records).  This is the single source for the
    generated ``docs/config_paths.md`` and the evaluation service's
    ``GET /paths`` endpoint, so the two can never drift apart.
    """
    aliases_by_path: dict[str, list[str]] = {}
    for alias, target in path_aliases().items():
        aliases_by_path.setdefault(target, []).append(alias)
    registry = _registry()
    records = []
    for path, default, _ in leaf_layout():
        note = registry[path]
        if not isinstance(default, (bool, int, float, str, type(None))):
            default = repr(default)
        records.append({
            "path": path,
            "note": note,
            "aliases": sorted(aliases_by_path.get(path, [])),
            "default": default,
            "network_level": _is_network_level(path),
        })
    return records

"""Scheme registry and factory.

The benchmarks, examples and the NoC power layer all refer to crossbar
schemes by their Table 1 names ("SC", "DFC", ...).  The factory owns the
mapping so a typo fails loudly and new schemes (e.g. user extensions)
can be registered without touching the callers.
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import CrossbarError
from ..technology.library import TechnologyLibrary
from .base import CrossbarScheme
from .dfc import DualVtFeedbackCrossbar
from .dpc import DualVtPrechargedCrossbar
from .ports import CrossbarConfig
from .sc import SingleVtCrossbar
from .sdfc import SegmentedDualVtFeedbackCrossbar
from .sdpc import SegmentedDualVtPrechargedCrossbar

__all__ = [
    "SCHEME_ORDER",
    "available_schemes",
    "create_scheme",
    "create_all_schemes",
    "register_scheme",
]

SchemeFactory = Callable[[TechnologyLibrary, CrossbarConfig | None], CrossbarScheme]

#: Table 1 column order.
SCHEME_ORDER: tuple[str, ...] = ("SC", "DFC", "DPC", "SDFC", "SDPC")

_REGISTRY: dict[str, SchemeFactory] = {
    "SC": SingleVtCrossbar,
    "DFC": DualVtFeedbackCrossbar,
    "DPC": DualVtPrechargedCrossbar,
    "SDFC": SegmentedDualVtFeedbackCrossbar,
    "SDPC": SegmentedDualVtPrechargedCrossbar,
}


def _ordered_names() -> tuple[str, ...]:
    """Registered names, Table 1 order first, then the others sorted."""
    ordered = [name for name in SCHEME_ORDER if name in _REGISTRY]
    extras = sorted(name for name in _REGISTRY if name not in SCHEME_ORDER)
    return tuple(ordered + extras)


#: :func:`available_schemes`, recomputed by :func:`register_scheme`.
_ORDERED_NAMES = _ordered_names()


def available_schemes() -> list[str]:
    """Names of all registered schemes, Table 1 order first (a fresh list
    each call, so a caller's changes never reach the registry)."""
    return list(_ORDERED_NAMES)


def register_scheme(name: str, factory: SchemeFactory, overwrite: bool = False) -> None:
    """Register a new scheme factory under ``name``.

    Intended for downstream extensions (e.g. a triple-Vt variant); the
    bundled names cannot be silently replaced unless ``overwrite`` is
    set.
    """
    global _ORDERED_NAMES
    key = name.upper()
    if key in _REGISTRY and not overwrite:
        raise CrossbarError(f"scheme {name!r} is already registered (pass overwrite=True to replace)")
    _REGISTRY[key] = factory
    _ORDERED_NAMES = _ordered_names()
    # A replaced factory invalidates any structurally memoised schemes
    # built under the old one (lazy import: the evaluator imports us).
    if overwrite:
        from ..core.scheme_evaluator import clear_structural_cache

        clear_structural_cache()


def create_scheme(name: str, library: TechnologyLibrary,
                  config: CrossbarConfig | None = None) -> CrossbarScheme:
    """Instantiate a scheme by its Table 1 name."""
    key = name.upper()
    try:
        factory = _REGISTRY[key]
    except KeyError as exc:
        known = ", ".join(available_schemes())
        raise CrossbarError(f"unknown crossbar scheme {name!r}; known schemes: {known}") from exc
    return factory(library, config)


def create_all_schemes(library: TechnologyLibrary,
                       config: CrossbarConfig | None = None) -> dict[str, CrossbarScheme]:
    """Instantiate every bundled scheme, keyed by name in Table 1 order."""
    return {name: create_scheme(name, library, config) for name in available_schemes()}

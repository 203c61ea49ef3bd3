"""Docs stay true: generated references in sync, public API documented.

``docs/config_paths.md`` must match what ``scripts/gen_path_docs.py``
renders from the live path registry (so the committed reference can
never drift from the code), every public symbol of the engine API must
carry a docstring, and every name a ``repro`` module lists in
``__all__`` must exist.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
import repro.engine as engine
import repro.engine.cache
import repro.engine.distributed
import repro.engine.evaluator
import repro.engine.executor
import repro.engine.grid
import repro.engine.resultset
import repro.engine.service
import repro.engine.worker
import repro.core.paths

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_gen_path_docs():
    script = REPO_ROOT / "scripts" / "gen_path_docs.py"
    spec = importlib.util.spec_from_file_location("gen_path_docs", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_config_paths_doc_matches_live_registry():
    """docs/config_paths.md is exactly what the generator renders today.

    On failure: ``python scripts/gen_path_docs.py`` regenerates it.
    """
    generator = _load_gen_path_docs()
    committed = (REPO_ROOT / "docs" / "config_paths.md").read_text(
        encoding="utf-8")
    assert committed == generator.render(), (
        "docs/config_paths.md is out of sync with the path registry; "
        "regenerate it with: python scripts/gen_path_docs.py"
    )


def test_config_paths_doc_covers_every_sweepable_path():
    from repro.core.paths import sweepable_paths

    committed = (REPO_ROOT / "docs" / "config_paths.md").read_text(
        encoding="utf-8")
    for path in sweepable_paths():
        assert f"`{path}`" in committed


def test_readme_links_resolve():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for doc in ("docs/architecture.md", "docs/serving.md",
                "docs/config_paths.md", "docs/distributed.md",
                "docs/performance.md"):
        assert doc in readme
        assert (REPO_ROOT / doc).is_file()


# ---------------------------------------------------------------------------
# docstring presence over the public engine API
# ---------------------------------------------------------------------------

ENGINE_MODULES = [
    engine,
    repro.engine.cache,
    repro.engine.distributed,
    repro.engine.evaluator,
    repro.engine.executor,
    repro.engine.grid,
    repro.engine.resultset,
    repro.engine.service,
    repro.engine.worker,
    repro.core.paths,
]


def _documented(obj) -> bool:
    doc = inspect.getdoc(obj)
    return bool(doc and doc.strip())


def _public_symbols():
    """(label, object) for every __all__ symbol of the engine modules."""
    seen = set()
    for module in ENGINE_MODULES:
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if id(obj) in seen or not (inspect.isclass(obj)
                                       or inspect.isfunction(obj)):
                continue
            seen.add(id(obj))
            yield f"{module.__name__}.{name}", obj


@pytest.mark.parametrize("label,obj",
                         list(_public_symbols()),
                         ids=[label for label, _ in _public_symbols()])
def test_public_engine_symbols_are_documented(label, obj):
    """Every public class/function has a docstring, and so does every
    public method and property the class itself defines."""
    assert _documented(obj), f"{label} is missing a docstring"
    if not inspect.isclass(obj):
        return
    for name, member in vars(obj).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            assert _documented(member), (
                f"{label}.{name} (property) is missing a docstring")
        elif inspect.isfunction(member) or isinstance(
                member, (classmethod, staticmethod)):
            target = member.__func__ if isinstance(
                member, (classmethod, staticmethod)) else member
            assert _documented(target), (
                f"{label}.{name} is missing a docstring")


def test_every_all_name_of_every_module_resolves():
    """No ``__all__`` entry outlives the definition it exports."""
    modules = ["repro"] + [info.name for info in
                           pkgutil.walk_packages(repro.__path__, "repro.")]
    listed, missing = 0, []
    for name in modules:
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", ()):
            listed += 1
            if not hasattr(module, symbol):
                missing.append(f"{name}.{symbol}")
    assert listed > 300
    assert missing == []

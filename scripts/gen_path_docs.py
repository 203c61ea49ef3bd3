"""Generate ``docs/config_paths.md`` from the live path registry.

The sweepable-path registry is derived from the nested
``ExperimentConfig`` dataclass tree (``repro.core.paths``); this script
renders it as a Markdown reference so the docs can never describe a
path the engine does not accept.  ``tests/test_docs.py`` asserts the
committed file matches :func:`render` output — regenerate with::

    python scripts/gen_path_docs.py

whenever a config field is added, removed or re-described.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.paths import path_registry_records  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "docs" / "config_paths.md"

HEADER = """\
# Sweepable config paths

> Generated by `python scripts/gen_path_docs.py` from the live registry
> in `repro.core.paths` — do not edit by hand; `tests/test_docs.py`
> asserts this file is in sync.

Every leaf of the nested `ExperimentConfig` tree is addressable by the
dotted paths below — in grid axes (`DesignSpace.grid`), overrides
(`with_overrides`), service queries (`POST /evaluate`), filters and
series extraction.  Unambiguous leaf names work as aliases.

The same records are served live by a running evaluation service at
`GET /paths`.

`static_probability` accepts `[0, 1]`, but at exactly `0` (or `-0.0`)
every bundled scheme's standby saves nothing, so every such point
raises `PowerError` ("saves no power in standby; minimum idle time
undefined") and the service answers `400 evaluation-failed`.  Whether
idle leakage should fall to the sleep-mode leakage at p = 0 is not yet
checked against the paper (see [serving.md](serving.md)).
"""


def _format_default(value: object) -> str:
    if isinstance(value, str):
        return f"`{value!r}`"
    return f"`{value}`"


def render() -> str:
    """The full Markdown document for the current registry."""
    lines = [HEADER]
    lines.append("| Path | Default | Aliases | What varying it exercises |")
    lines.append("| --- | --- | --- | --- |")
    for record in path_registry_records():
        aliases = ", ".join(f"`{alias}`" for alias in record["aliases"]) or "—"
        note = record["note"].replace("|", "\\|")
        lines.append(
            f"| `{record['path']}` | {_format_default(record['default'])} "
            f"| {aliases} | {note} |"
        )
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    """Write the rendered registry to ``docs/config_paths.md``."""
    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(render(), encoding="utf-8")
    print(f"wrote {OUTPUT_PATH.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Regenerate the paper's Table 1: all five schemes side by side.

Run with ``python examples/crossbar_comparison.py``.  This is the same
computation the Table 1 benchmark times; the example prints the rendered
table plus the per-scheme device inventory that explains *why* the
numbers move (which roles went high-Vt in each scheme).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import compare_schemes, paper_experiment  # noqa: E402
from repro.analysis import describe_output_path, render_table  # noqa: E402
from repro.core import SchemeEvaluator  # noqa: E402


def main() -> None:
    config = paper_experiment()
    comparison = compare_schemes(config)

    print("Reproduction of Table 1 (paper-reported values: PAPER_TABLE1 in benchmarks/conftest.py)")
    print()
    print(comparison.as_table_text())
    print()

    evaluator = SchemeEvaluator(config)
    rows = []
    for name in comparison.scheme_names:
        scheme = evaluator.build_scheme(name)
        structure = describe_output_path(scheme)
        rows.append([
            name,
            structure.device_count,
            structure.high_vt_count,
            f"{structure.high_vt_fraction:.0%}",
            ", ".join(structure.high_vt_roles) or "-",
        ])
    print(render_table(
        ["scheme", "devices / output bit", "high-Vt devices", "high-Vt fraction", "high-Vt roles"],
        rows, title="Per-scheme output-path inventory (the content of Figures 1-3)",
    ))


if __name__ == "__main__":
    main()

"""Segmentation study: where do the SDFC/SDPC gains come from?

Decomposes the segmented schemes' advantage over their unsegmented
parents into (a) the reduced switched wire capacitance, (b) the extra
high-Vt devices funded by the path-1 slack, and (c) the per-segment
standby opportunity — the three mechanisms Section 2.3/2.4 of the paper
describes — and shows the path-1 / path-2 delay asymmetry that makes it
possible.

Run with ``python examples/segmentation_study.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import create_all_schemes, default_45nm  # noqa: E402
from repro.analysis import describe_segmentation, render_table  # noqa: E402
from repro.technology import VtFlavor  # noqa: E402


def main() -> None:
    library = default_45nm()
    schemes = create_all_schemes(library)

    # Path asymmetry (Figure 3 content).
    rows = []
    for name in ("SDFC", "SDPC"):
        seg = describe_segmentation(schemes[name])
        rows.append([
            name,
            seg.near_path_delay * 1e12,
            seg.far_path_delay * 1e12,
            f"{seg.near_path_slack_fraction:.0%}",
        ])
    print(render_table(
        ["scheme", "path 1 delay (ps)", "path 2 delay (ps)", "path-1 slack"],
        rows, title="Path asymmetry created by segmentation",
    ))
    print()

    # Mechanism decomposition relative to the unsegmented parents.
    rows = []
    for segmented, parent in (("SDFC", "DFC"), ("SDPC", "DPC")):
        seg_scheme, parent_scheme = schemes[segmented], schemes[parent]
        switched_capacitance_reduction = 1.0 - (
            seg_scheme._row_switched_capacitance() / parent_scheme._row_switched_capacitance()
        )
        high_vt_delta = (
            seg_scheme.single_bit_statistics.count_by_flavor.get(VtFlavor.HIGH, 0)
            - parent_scheme.single_bit_statistics.count_by_flavor.get(VtFlavor.HIGH, 0)
        )
        rows.append([
            f"{segmented} vs {parent}",
            f"{switched_capacitance_reduction:.0%}",
            high_vt_delta,
            f"{1 - seg_scheme.dynamic_power() / parent_scheme.dynamic_power():.1%}",
            f"{1 - seg_scheme.active_leakage_power() / parent_scheme.active_leakage_power():.1%}",
            f"{1 - seg_scheme.standby_leakage_power() / parent_scheme.standby_leakage_power():.1%}",
        ])
    print(render_table(
        ["comparison", "row-wire C switched less", "extra high-Vt devices / bit",
         "dynamic power reduction", "active leakage reduction", "standby leakage reduction"],
        rows, title="What segmentation buys (relative to the unsegmented parent scheme)",
    ))


if __name__ == "__main__":
    main()

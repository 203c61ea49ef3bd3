"""Reporting and analysis helpers (docs/architecture.md)."""

from .figures import (
    OutputPathStructure,
    SegmentationStructure,
    describe_output_path,
    describe_segmentation,
    sweep_table,
)
from .sweep import SweepSeries, crossover_points, run_sweep
from .table import render_table

__all__ = [
    "OutputPathStructure",
    "SegmentationStructure",
    "SweepSeries",
    "crossover_points",
    "describe_output_path",
    "describe_segmentation",
    "render_table",
    "run_sweep",
    "sweep_table",
]

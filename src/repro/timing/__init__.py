"""Timing substrate: stage delays, delay analysis, slack and dual-Vt assignment.

See ``docs/architecture.md``.
"""

from .delay_analysis import DelayReport, contention_factor, pass_rise_penalty
from .path import stage_delay
from .slack import SlackReport, required_time_from_clock
from .vt_assignment import VtAssignmentResult, VtCandidate, assign_high_vt

__all__ = [
    "DelayReport",
    "SlackReport",
    "VtAssignmentResult",
    "VtCandidate",
    "assign_high_vt",
    "contention_factor",
    "pass_rise_penalty",
    "required_time_from_clock",
    "stage_delay",
]

"""Window model: specifications and coverage relations.

This package implements Section II of the paper — the formal study of
overlapping relationships between windows — plus the time-unit handling
the SQL front end needs.
"""

from .coverage import (
    CoverageSemantics,
    covered_by,
    covering_multiplier,
    partitioned_by,
    relates,
    strictly_relates,
)
from .units import canonical_unit, format_duration, to_ticks
from .window import VIRTUAL_ROOT, Window, WindowSet, hopping, tumbling

__all__ = [
    "CoverageSemantics",
    "VIRTUAL_ROOT",
    "Window",
    "WindowSet",
    "canonical_unit",
    "covered_by",
    "covering_multiplier",
    "format_duration",
    "hopping",
    "partitioned_by",
    "relates",
    "strictly_relates",
    "to_ticks",
    "tumbling",
]

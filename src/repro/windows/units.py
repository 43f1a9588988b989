"""Time units for window specifications.

The paper assumes range and slide are integers sharing one time unit
(Section II-A).  The SQL front end, however, accepts mixed units
(``TUMBLING(MINUTE, 20)`` next to ``HOPPING(SECOND, 90, 30)``), so this
module normalizes everything to integer *ticks* — seconds by default.
"""

from __future__ import annotations

from ..errors import SqlSemanticError

#: Multiplier from each supported unit to seconds.
SECONDS_PER_UNIT: dict[str, int] = {
    "microsecond": 0,  # placeholder; sub-second units are rejected below
    "second": 1,
    "minute": 60,
    "hour": 3_600,
    "day": 86_400,
}

#: Accepted aliases (ASA and common SQL spellings), mapped to canonical names.
UNIT_ALIASES: dict[str, str] = {
    "s": "second",
    "ss": "second",
    "sec": "second",
    "second": "second",
    "seconds": "second",
    "m": "minute",
    "mi": "minute",
    "min": "minute",
    "minute": "minute",
    "minutes": "minute",
    "h": "hour",
    "hh": "hour",
    "hour": "hour",
    "hours": "hour",
    "d": "day",
    "dd": "day",
    "day": "day",
    "days": "day",
}


def canonical_unit(name: str) -> str:
    """Return the canonical unit name for ``name``.

    Raises :class:`SqlSemanticError` for unknown or unsupported units.
    """
    key = name.strip().lower()
    if key not in UNIT_ALIASES:
        raise SqlSemanticError(f"unknown time unit: {name!r}")
    unit = UNIT_ALIASES[key]
    if SECONDS_PER_UNIT.get(unit, 0) <= 0:
        raise SqlSemanticError(f"unsupported time unit: {name!r}")
    return unit


def to_ticks(value: int, unit: str = "second") -> int:
    """Convert ``value`` in ``unit`` to integer ticks (seconds).

    ``value`` must be a positive integer; windows with fractional or
    non-positive durations are invalid in the paper's model.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise SqlSemanticError(f"duration must be an integer, got {value!r}")
    if value <= 0:
        raise SqlSemanticError(f"duration must be positive, got {value}")
    return value * SECONDS_PER_UNIT[canonical_unit(unit)]


def format_duration(ticks: int) -> str:
    """Render ``ticks`` with the largest unit that divides it evenly."""
    for unit in ("day", "hour", "minute"):
        per = SECONDS_PER_UNIT[unit]
        if ticks % per == 0 and ticks >= per:
            return f"{ticks // per} {unit}"
    return f"{ticks} second"

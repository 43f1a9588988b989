"""Tests for time-unit handling."""

import pytest

from repro.errors import SqlSemanticError
from repro.windows.units import (
    canonical_unit,
    format_duration,
    to_ticks,
)


class TestCanonicalUnit:
    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("s", "second"),
            ("sec", "second"),
            ("Seconds", "second"),
            ("m", "minute"),
            ("MIN", "minute"),
            ("minutes", "minute"),
            ("h", "hour"),
            ("hours", "hour"),
            ("d", "day"),
        ],
    )
    def test_aliases(self, alias, expected):
        assert canonical_unit(alias) == expected

    def test_unknown_unit_rejected(self):
        with pytest.raises(SqlSemanticError):
            canonical_unit("fortnight")

    def test_subsecond_rejected(self):
        with pytest.raises(SqlSemanticError):
            canonical_unit("microsecond")


class TestToTicks:
    def test_conversions(self):
        assert to_ticks(20, "minute") == 1200
        assert to_ticks(2, "hour") == 7200
        assert to_ticks(1, "day") == 86400
        assert to_ticks(30) == 30

    def test_non_positive_rejected(self):
        with pytest.raises(SqlSemanticError):
            to_ticks(0, "minute")
        with pytest.raises(SqlSemanticError):
            to_ticks(-5, "minute")

    def test_non_integer_rejected(self):
        with pytest.raises(SqlSemanticError):
            to_ticks(2.5, "minute")  # type: ignore[arg-type]
        with pytest.raises(SqlSemanticError):
            to_ticks(True, "minute")  # type: ignore[arg-type]


class TestFormatDuration:
    def test_largest_even_unit(self):
        assert format_duration(1200) == "20 minute"
        assert format_duration(7200) == "2 hour"
        assert format_duration(86400) == "1 day"
        assert format_duration(90) == "90 second"

    def test_roundtrip(self):
        for ticks in (1, 60, 61, 3600, 5400, 86400):
            value, unit = format_duration(ticks).split()
            assert to_ticks(int(value), unit) == ticks

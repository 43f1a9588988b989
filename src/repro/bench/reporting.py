"""Plain-text reporting: aligned tables and figure-style series.

The benchmark suite prints the same rows/series the paper's tables and
figures report; these helpers keep that output consistent and legible
in a terminal.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in str_rows)
    return "\n".join(parts)


def format_series(
    series: "dict[str, Sequence[float]]",
    x_label: str = "run",
    title: str = "",
    unit: str = "K events/s",
    scale: float = 1e-3,
) -> str:
    """Render figure series as a table: one row per x, one column per
    series (matching the paper's grouped-bar figures)."""
    names = list(series)
    length = max((len(v) for v in series.values()), default=0)
    headers = [x_label] + [f"{n} ({unit})" for n in names]
    rows = []
    for i in range(length):
        row = [str(i + 1)]
        for name in names:
            values = series[name]
            row.append(f"{values[i] * scale:,.0f}" if i < len(values) else "-")
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_boost_summary_table(summaries, title: str) -> str:
    """Render a Tables I-IV style boost summary."""
    headers = [
        "Setup",
        "w/o FW (Mean)",
        "w/o FW (Max)",
        "w/ FW (Mean)",
        "w/ FW (Max)",
    ]
    return format_table(headers, [s.row() for s in summaries], title=title)

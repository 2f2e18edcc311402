"""Plain-text report tables.

The benchmark scripts print the same rows the paper's figures plot; these
helpers render them as aligned ASCII tables so the output of
``pytest benchmarks/ --benchmark-only`` is readable on its own and can be
pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

Cell = Union[str, int, float, None]
Row = Mapping[str, Cell]


def _format_cell(value: Cell) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[Row], columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render ``rows`` (dicts) as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    header = [str(column) for column in columns]
    body: List[List[str]] = [
        [_format_cell(row.get(column)) for column in columns] for row in rows
    ]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) for i in range(len(header))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)


def format_key_values(values: Mapping[str, Cell], title: Optional[str] = None) -> str:
    """Render a flat mapping as ``key: value`` lines (cover stats etc.)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    for key, value in values.items():
        lines.append(f"  {key}: {_format_cell(value)}")
    return "\n".join(lines)

"""Fixed-width text tables of row dicts.

The CLI, ``repro report``, the examples and the benchmark harness print
the experiment tables documented in EXPERIMENTS.md through
:func:`format_table`.  It needs nothing beyond the standard library, so
commands that render tables do not load the numpy-backed statistics.
"""

from __future__ import annotations

from typing import Optional, Sequence


def format_table(rows: Sequence[dict], columns: Optional[Sequence[str]] = None
                 ) -> str:
    """Render a list of dict rows as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows = [[_format_cell(row.get(column)) for column in columns]
                     for row in rows]
    widths = [max(len(str(column)), *(len(row[i]) for row in rendered_rows))
              for i, column in enumerate(columns)]
    header = "  ".join(str(column).ljust(width)
                       for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths))
                     for row in rendered_rows)
    return "\n".join([header, separator, body])


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


__all__ = ["format_table"]

"""Plain-text reporting of experiment results.

Everything the paper shows as a figure is reproduced here as printed
series/tables (there is no plotting dependency in this repository); the
benchmarks call these helpers so that running them prints the rows the
paper reports.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from ..core.charlie import MisCurve
from ..units import to_ps

__all__ = ["ascii_table", "format_curve", "format_curves",
           "format_bar_chart"]


def ascii_table(headers: Sequence[str],
                rows: Sequence[Sequence[object]],
                title: str | None = None) -> str:
    """Render a simple fixed-width table.

    A ``float`` cell prints as ``.4g`` and any other cell as ``str``.
    Each cell is formatted once, and one format string over the
    column widths lays out every line, left-aligned.
    """
    columns = len(headers)
    if any(len(row) != columns for row in rows):
        raise ValueError("row length does not match headers")
    cells = [str(h) for h in headers]
    cells += [item if type(item) is str
              else f"{item:.4g}" if isinstance(item, float)
              else str(item) for item in chain.from_iterable(rows)]
    widths = [max(map(len, cells[i::columns])) for i in range(columns)]
    line = " | ".join(f"{{:<{width}}}" for width in widths)
    separator = "-+-".join("-" * width for width in widths)
    # The title stays out of the format string: it may hold braces.
    layout = "\n".join([line, separator] + [line] * len(rows))
    text = layout.format(*cells)
    return f"{title}\n{text}" if title else text


def format_curve(curve: MisCurve, label: str | None = None) -> str:
    """One MIS curve as a Δ/δ table in picoseconds."""
    rows = [(f"{d:+.1f}", f"{v:.2f}") for d, v in curve.rows()]
    return ascii_table(
        ["delta [ps]", "delay [ps]"], rows,
        title=label or f"{curve.direction} delay ({curve.label})")


def format_curves(curves: Sequence[MisCurve], title: str = "") -> str:
    """Several curves side by side on the union grid (interpolated)."""
    if not curves:
        raise ValueError("need at least one curve")
    grid = sorted({d for curve in curves for d in curve.deltas})
    headers = ["delta [ps]"] + [curve.label or f"curve{i}"
                                for i, curve in enumerate(curves)]
    rows = []
    for d in grid:
        row = [f"{to_ps(d):+.1f}"]
        for curve in curves:
            if curve.deltas[0] <= d <= curve.deltas[-1]:
                row.append(f"{to_ps(curve.delay_at(d)):.2f}")
            else:
                row.append("-")
        rows.append(row)
    return ascii_table(headers, rows, title=title)


def format_bar_chart(labels: Sequence[str], values: Sequence[float],
                     title: str = "", width: int = 40,
                     reference: float = 1.0) -> str:
    """Horizontal ASCII bar chart (Fig. 7 style, lower = better)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must match")
    peak = max(max(values), reference)
    lines = [title] if title else []
    label_width = max(len(label) for label in labels)
    for label, value in zip(labels, values):
        bar = "#" * max(1, round(width * value / peak))
        lines.append(f"{label:<{label_width}}  {value:5.2f}  {bar}")
    return "\n".join(lines)

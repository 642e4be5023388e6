"""Plain-text reporting of experiment results.

The benchmark harnesses print the same rows/series the paper's figures show;
these helpers render aligned text tables so the output is readable in a
terminal and diffable in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.3f}",
) -> str:
    """Render a fixed-width text table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = [render_line(list(headers)), render_line(["-" * w for w in widths])]
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)


def format_series_table(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    float_format: str = "{:.3f}",
) -> str:
    """Render "one row per x value, one column per algorithm" — the layout of
    every figure in the paper's evaluation."""
    headers = [x_label] + list(series.keys())
    rows: List[List[object]] = []
    for i, x in enumerate(x_values):
        row: List[object] = [x]
        for name in series:
            values = series[name]
            if len(values) != len(x_values):
                raise ValueError(f"series {name!r} length does not match x values")
            row.append(float(values[i]))
        rows.append(row)
    return format_table(headers, rows, float_format=float_format)


def format_metric_dict(metrics: Mapping[str, float], float_format: str = "{:.3f}") -> str:
    """Render a flat metric dictionary as ``name: value`` lines."""
    lines = []
    for key, value in metrics.items():
        if isinstance(value, float):
            lines.append(f"{key}: {float_format.format(value)}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)

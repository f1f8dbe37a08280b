"""Rendering: ASCII tables reproducing the paper's figure/table series.

The benchmark harness prints, for every figure and table of §IV, the rows
the paper plots -- so a reader can compare shapes (who dominates, where the
knee falls, how scaling behaves) without a plotting stack.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

__all__ = ["render_table", "format_seconds", "ReportBuilder"]

#: characters in the longest bar of :meth:`ReportBuilder.add_bars`
BAR_WIDTH = 40


def format_seconds(value: float) -> str:
    """Human-scaled seconds: µs/ms/s picked by magnitude."""
    if value != value:  # NaN
        return "n/a"
    if abs(value) >= 1.0:
        return f"{value:.2f} s"
    if abs(value) >= 1e-3:
        return f"{value * 1e3:.3f} ms"
    return f"{value * 1e6:.1f} µs"


def render_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Render an ASCII table with right-aligned numeric columns."""
    str_rows: List[List[str]] = []
    for row in rows:
        str_rows.append([
            cell if isinstance(cell, str)
            else format_seconds(cell) if isinstance(cell, float)
            else str(cell)
            for cell in row])
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(c.rjust(widths[i]) for i, c in enumerate(cells))

    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
        out.append("=" * len(sep))
    out.append(line(list(headers)))
    out.append(sep)
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


class ReportBuilder:
    """Accumulates named sections and renders them together."""

    def __init__(self, title: str) -> None:
        self.title = title
        self._sections: List[str] = []

    def add_table(self, headers: Sequence[str], rows: Iterable[Sequence],
                  title: str = "") -> "ReportBuilder":
        self._sections.append(render_table(headers, rows, title))
        return self

    def add_text(self, text: str) -> "ReportBuilder":
        self._sections.append(text)
        return self

    def add_bars(self, mapping: Dict[str, float],
                 title: str = "") -> "ReportBuilder":
        """Horizontal ASCII bar chart, scaled to the largest value.

        Used by the attribution engine's phase-breakdown summaries: a
        dominant phase should *look* dominant in a terminal.
        """
        lines = [title] if title else []
        peak = max(mapping.values(), default=0.0)
        key_width = max((len(k) for k in mapping), default=0)
        for key, value in mapping.items():
            bar = "#" * (round(BAR_WIDTH * value / peak) if peak > 0 else 0)
            lines.append(f"  {key.ljust(key_width)} |{bar} {value:g}")
        self._sections.append("\n".join(lines))
        return self

    def add_kv(self, mapping: Dict[str, object],
               title: str = "") -> "ReportBuilder":
        lines = [title] if title else []
        width = max((len(k) for k in mapping), default=0)
        for key, value in mapping.items():
            if isinstance(value, float):
                value = format_seconds(value)
            lines.append(f"  {key.ljust(width)} : {value}")
        self._sections.append("\n".join(lines))
        return self

    def render(self) -> str:
        bar = "#" * max(len(self.title) + 4, 40)
        head = f"{bar}\n# {self.title}\n{bar}"
        return "\n\n".join([head, *self._sections])

    def print(self) -> None:
        print("\n" + self.render() + "\n")

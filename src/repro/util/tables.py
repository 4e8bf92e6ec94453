"""ASCII table/figure rendering for the experiment harness.

The harness prints each reproduced table with the same rows and columns
as the paper, plus optional paper-reference columns for side-by-side
comparison, and renders figure series as aligned text (and simple
log-scale sparkline plots) suitable for a terminal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class Table:
    """A simple left-header table matching the paper's layout."""

    title: str
    col_headers: list[str]
    rows: list[tuple[str, list[str]]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, label: str, cells: Sequence[object]) -> None:
        if len(cells) != len(self.col_headers):
            raise ValueError(
                f"row {label!r} has {len(cells)} cells, expected {len(self.col_headers)}"
            )
        self.rows.append((label, [_fmt_cell(c) for c in cells]))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        header_cells = [""] + self.col_headers
        body = [[label] + cells for label, cells in self.rows]
        widths = [
            max(len(row[i]) for row in [header_cells] + body)
            for i in range(len(header_cells))
        ]

        def fmt_line(cells: list[str]) -> str:
            return " | ".join(c.rjust(w) for c, w in zip(cells, widths))

        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, fmt_line(header_cells), sep]
        lines += [fmt_line(row) for row in body]
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _fmt_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000:
            return f"{value:,.2f}"
        if magnitude >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


@dataclass
class FigureSeries:
    """One line of a figure: label plus (x, y) points."""

    label: str
    points: list[tuple[int, float]]


@dataclass
class Figure:
    """A text rendering of a paper figure: aligned series + sparklines."""

    title: str
    x_label: str
    y_label: str
    series: list[FigureSeries] = field(default_factory=list)
    log_y: bool = False
    #: render x values as plain counts (rank/pair axes), never as bytes
    plain_x: bool = False

    def add_series(self, label: str, points: Iterable[tuple[int, float]]) -> None:
        pts = sorted(points)
        if not pts:
            raise ValueError(f"empty series {label!r}")
        self.series.append(FigureSeries(label, pts))

    def render(self, width: int = 24) -> str:
        xs = sorted({x for s in self.series for x, _ in s.points})
        table = Table(
            f"{self.title}   [y: {self.y_label}, x: {self.x_label}]",
            [str(x) if self.plain_x else _x_label(x) for x in xs],
        )
        for s in self.series:
            by_x = dict(s.points)
            table.add_row(s.label, [by_x.get(x, "") for x in xs])
        lines = [table.render(), ""]
        lines += self._sparklines(width)
        return "\n".join(lines)

    def _sparklines(self, width: int) -> list[str]:
        blocks = " .:-=+*#%@"
        all_ys = [y for s in self.series for _, y in s.points if y > 0 or not self.log_y]
        if not all_ys:
            return []
        ys = [math.log10(y) if self.log_y else y for y in all_ys if y > 0 or not self.log_y]
        lo, hi = min(ys), max(ys)
        span = (hi - lo) or 1.0
        out = []
        label_w = max(len(s.label) for s in self.series)
        for s in self.series:
            cells = []
            for _, y in s.points:
                v = math.log10(y) if (self.log_y and y > 0) else (y if not self.log_y else lo)
                frac = (v - lo) / span
                cells.append(blocks[min(len(blocks) - 1, int(frac * (len(blocks) - 1) + 0.5))])
            out.append(f"  {s.label.ljust(label_w)} |{''.join(cells)}|")
        return out


def _x_label(x: int) -> str:
    from repro.util.units import format_bytes

    # Pair counts and other small x-values read better unadorned.
    if x < 512 and x in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        return str(x)
    return format_bytes(x)

"""Result tables: fixed-width text rendering and CSV export.

Every experiment in :mod:`repro.experiments.registry` returns a
:class:`Table`; ``repro run`` prints them (or writes CSV and markdown
summaries), each experiment's claim is a predicate over its table, and
EXPERIMENTS.md records them.  Cells may be any value; formatting is
centralized here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from repro.errors import DimensionError

__all__ = ["Table", "format_cell"]


def format_cell(value: Any) -> str:
    """Render one table cell: Fractions and floats get fixed precision."""
    if isinstance(value, Fraction):
        return f"{float(value):.3f}"
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


@dataclass
class Table:
    """A titled grid of results with free-form footnotes."""

    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise DimensionError(
                f"row has {len(cells)} cells but table has {len(self.headers)} headers"
            )
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def to_text(self) -> str:
        """Fixed-width rendering suitable for terminals and EXPERIMENTS.md."""
        rendered = [[format_cell(c) for c in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in rendered:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * max(len(self.title), 1)]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in rendered:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_csv(self, path: str | Path) -> Path:
        """Write headers + rows as CSV; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.headers)
            for row in self.rows:
                writer.writerow([format_cell(c) for c in row])
        return path

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()

"""Plain-text tables for experiment output.

Nothing here depends on plotting; figures are reported as series tables
(x column + one column per detector), as the README's "Experiments"
section shows them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["Table", "fmt"]


def fmt(value: Any, *, precision: int = 3) -> str:
    """Render one cell: floats rounded, None as '-', everything else str()."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return f"{value:.{precision}f}"
    return str(value)


@dataclass
class Table:
    """A titled table with typed rows."""

    title: str
    headers: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    precision: int = 3

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        """All values of one column, by header name."""
        index = list(self.headers).index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        cells = [[fmt(v, precision=self.precision) for v in row] for row in self.rows]
        widths = [
            max(len(str(header)), *(len(row[i]) for row in cells)) if cells else len(str(header))
            for i, header in enumerate(self.headers)
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        lines = [f"**{self.title}**", ""]
        lines.append("| " + " | ".join(str(h) for h in self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append(
                "| " + " | ".join(fmt(v, precision=self.precision) for v in row) + " |"
            )
        for note in self.notes:
            lines.append(f"\n_{note}_")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

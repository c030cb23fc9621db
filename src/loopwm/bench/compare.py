"""Side-by-side report comparison, first entry as the baseline."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..errors import SuiteError
from ..report import write_csv
from .metrics import MetricReport

_COLUMNS = (
    ("completeness", "action_completeness"),
    ("success", "success_rate"),
    ("smoothness", "motion_smoothness"),
    ("interaction", "object_interaction"),
    ("fidelity", "physical_fidelity"),
)


@dataclass(frozen=True)
class ComparisonTable:
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    text: str

    def write_csv(self, path: str | Path) -> Path:
        return write_csv(path, self.header, self.rows)


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def _fmt_delta(value: float | None, base: float | None) -> str:
    if value is None or base is None:
        return ""
    return f"{value - base:+.3f}"


def compare(entries: list[tuple[str, MetricReport]]) -> ComparisonTable:
    """Align named reports over the same suite; deltas are vs the first.

    A single report renders without delta columns.
    """
    if not entries:
        raise SuiteError("compare needs at least one report")
    base_digest = entries[0][1].suite_digest
    for name, report in entries[1:]:
        if report.suite_digest != base_digest:
            raise SuiteError(
                f"report {name!r} was measured on a different suite "
                f"({report.suite_digest[:12]} vs {base_digest[:12]})"
            )
    with_deltas = len(entries) > 1

    header = ["name"]
    for label, _ in _COLUMNS:
        header.append(label)
        if with_deltas:
            header.append(f"d_{label}")

    base = entries[0][1].overall
    rows = []
    for i, (name, report) in enumerate(entries):
        row = [name]
        for _, attr in _COLUMNS:
            value = getattr(report.overall, attr)
            row.append(_fmt(value))
            if with_deltas:
                row.append("" if i == 0 else _fmt_delta(value, getattr(base, attr)))
        rows.append(tuple(row))

    widths = [max(len(header[j]), *(len(r[j]) for r in rows)) for j in range(len(header))]

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines = [line(header), line(["-" * w for w in widths])]
    lines.extend(line(r) for r in rows)
    return ComparisonTable(tuple(header), tuple(rows), "\n".join(lines) + "\n")

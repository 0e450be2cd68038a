"""Paper-style ASCII reporting for experiment results.

Every benchmark prints the same rows/series the paper's tables and figures
report, and can tee them into ``bench_results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence


def format_value(value: object, precision: int = 3) -> str:
    """Human-format one cell."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.{precision}g}"
    if isinstance(value, int) and abs(value) >= 10000:
        return f"{value:,}"
    return str(value)


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 title: str | None = None) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[format_value(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths, strict=False)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths, strict=False)))
    return "\n".join(lines)


def results_dir(root: str | None = None) -> str:
    """The directory where benchmarks tee their printed output."""
    base = root or os.environ.get("REPRO_RESULTS_DIR", "bench_results")
    os.makedirs(base, exist_ok=True)
    return base


def save_report(name: str, text: str, root: str | None = None) -> str:
    """Write one experiment report to ``bench_results/<name>.txt``."""
    path = os.path.join(results_dir(root), f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")
    return path

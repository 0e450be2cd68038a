"""Benchmark harness utilities: runners and paper-style reporting."""

from repro.bench.reporting import (
    format_table,
    format_value,
    results_dir,
    save_report,
)
from repro.bench.runner import Measurement, run_cold

__all__ = [
    "Measurement",
    "format_table",
    "format_value",
    "results_dir",
    "run_cold",
    "save_report",
]

"""Experiment execution helpers shared by benchmarks, examples and tests."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.database import Database
from repro.exec.iterator import Operator
from repro.exec.stats import RunResult, measure


@dataclass
class Measurement:
    """One named measured run."""

    label: str
    result: RunResult
    extras: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Simulated execution time in seconds."""
        return self.result.total_seconds


def run_cold(db: Database, label: str, plan: Operator,
             keep_rows: bool = False, **extras) -> Measurement:
    """Measure one cold execution of ``plan``."""
    result = measure(db, plan, cold=True, keep_rows=keep_rows)
    return Measurement(label=label, result=result, extras=dict(extras))

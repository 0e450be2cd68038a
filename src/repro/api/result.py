"""Execution results of declarative queries.

A :class:`QueryResult` fuses the measured :class:`~repro.exec.stats.
RunResult` (rows, simulated time, I/O accounting) with the planner's
:class:`~repro.optimizer.planner.PlannedQuery` decision trail, so one
object answers both "what did it cost" and "why did it run that way".
"""

from __future__ import annotations

from repro.exec.stats import RunResult
from repro.optimizer.planner import PlanDecision, PlannedQuery
from repro.storage.disk import DiskStats
from repro.storage.types import Row


class QueryResult:
    """One executed declarative query: measurements + decision trail."""

    def __init__(self, plan: PlannedQuery, run: RunResult):
        self.plan = plan
        self.run = run

    # -- measurements (RunResult pass-throughs) ------------------------------

    @property
    def rows(self) -> list[Row]:
        """Materialized output rows (empty when run with keep_rows=False)."""
        return self.run.rows

    @property
    def row_count(self) -> int:
        """Rows the query produced (tracked even with keep_rows=False)."""
        return self.run.row_count

    @property
    def total_ms(self) -> float:
        return self.run.total_ms

    @property
    def total_seconds(self) -> float:
        return self.run.total_seconds

    @property
    def io_ms(self) -> float:
        return self.run.io_ms

    @property
    def cpu_ms(self) -> float:
        return self.run.cpu_ms

    @property
    def disk(self) -> DiskStats:
        return self.run.disk

    # -- the decision trail --------------------------------------------------

    @property
    def decisions(self) -> list[PlanDecision]:
        """Access-path and join-method decisions, plan-tree preorder."""
        return self.plan.decisions()

    def explain(self) -> str:
        """The plan tree with estimated *and* actual cardinalities."""
        return self.plan.render()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        paths = ",".join(d.path for d in self.decisions) or "-"
        return (
            f"QueryResult(rows={self.row_count}, "
            f"time={self.total_seconds:.3f}s, "
            f"io_requests={self.disk.requests}, paths=[{paths}])"
        )

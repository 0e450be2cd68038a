"""Time-binned rollup queries over the telemetry warehouse.

Every rollup here is a plain SQL string executed through the repo's own
front end against the :class:`~repro.telemetry.store.HistoryStore`
tables — the warehouse proves the engine by querying itself.  The
equality check :func:`verify_against_report` closes the loop the
telemetry experiment pins in CI: SQL aggregates over persisted spans
must agree *exactly* with the in-memory
:class:`~repro.exec.scheduler.WorkloadReport` the scheduler produced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.schema import QUERIES_TABLE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.scheduler import WorkloadReport
    from repro.telemetry.store import HistoryStore

#: Workload-wide totals for one run: the WorkloadReport aggregate shape.
TOTALS_SQL = f"""
    SELECT count(*) AS queries,
           sum(rows_out) AS rows_out,
           sum(io_ms) AS io_ms,
           sum(cpu_ms) AS cpu_ms,
           sum(pages_read) AS pages_read,
           sum(buffer_hits) AS buffer_hits,
           sum(buffer_misses) AS buffer_misses
    FROM {QUERIES_TABLE}
    WHERE run_id = :run_id
"""

#: Queries finished per time bin (bin = floor(finish_ms / bin_ms)).
BY_BIN_SQL = f"""
    SELECT bin,
           count(*) AS queries,
           sum(rows_out) AS rows_out,
           sum(total_ms) AS total_ms
    FROM {QUERIES_TABLE}
    WHERE run_id = :run_id
    GROUP BY bin
    ORDER BY bin
"""

#: Per-client workload shape (the concurrency mix, recovered from SQL).
BY_CLIENT_SQL = f"""
    SELECT client,
           count(*) AS queries,
           sum(rows_out) AS rows_out,
           sum(io_ms) AS io_ms,
           sum(cpu_ms) AS cpu_ms
    FROM {QUERIES_TABLE}
    WHERE run_id = :run_id
    GROUP BY client
    ORDER BY client
"""


def totals(store: "HistoryStore", run_id: int = 0) -> dict:
    """Workload-wide totals as a name → value dict."""
    with store.connect() as conn:
        result = conn.run(TOTALS_SQL, {"run_id": run_id})
    row = result.rows[0]
    names = ("queries", "rows_out", "io_ms", "cpu_ms", "pages_read",
             "buffer_hits", "buffer_misses")
    out = dict(zip(names, row, strict=False))
    if out["queries"] == 0:
        # Scalar aggregate over zero rows: sums are NULL-ish zeros here.
        out = {name: (0 if name == "queries" else 0.0) for name in names}
    return out


def by_bin(store: "HistoryStore", run_id: int = 0) -> list[dict]:
    """Per-time-bin rollup rows as dicts, in bin order."""
    with store.connect() as conn:
        result = conn.run(BY_BIN_SQL, {"run_id": run_id})
    names = ("bin", "queries", "rows_out", "total_ms")
    return [dict(zip(names, row, strict=False)) for row in result.rows]


def by_client(store: "HistoryStore", run_id: int = 0) -> list[dict]:
    """Per-client rollup rows as dicts, in client order."""
    with store.connect() as conn:
        result = conn.run(BY_CLIENT_SQL, {"run_id": run_id})
    names = ("client", "queries", "rows_out", "io_ms", "cpu_ms")
    return [dict(zip(names, row, strict=False)) for row in result.rows]


def report_totals(report: "WorkloadReport") -> dict:
    """The same aggregate shape, computed from the in-memory report."""
    records = report.records
    return {
        "queries": len(records),
        "rows_out": sum(r.rows for r in records),
        "io_ms": sum(r.ledger.io_ms for r in records),
        "cpu_ms": sum(r.ledger.cpu_ms for r in records),
        "pages_read": sum(r.ledger.disk.pages_read for r in records),
        "buffer_hits": sum(r.ledger.buffer_hits for r in records),
        "buffer_misses": sum(r.ledger.buffer_misses for r in records),
    }


def verify_against_report(store: "HistoryStore", report: "WorkloadReport",
                          run_id: int = 0) -> list[str]:
    """Mismatches between SQL rollups and the in-memory report.

    Every total must be equal: integer counters, and millisecond sums
    that add the same per-query floats in the same order.  Returns an
    empty list when the warehouse agrees exactly.
    """
    sql_side = totals(store, run_id=run_id)
    mem_side = report_totals(report)
    problems = []
    for name, expected in mem_side.items():
        actual = sql_side[name]
        if actual != expected:
            problems.append(f"{name}: sql={actual!r} report={expected!r}")
    sql_queries = sum(row["queries"] for row in by_bin(store, run_id=run_id))
    if sql_queries != mem_side["queries"]:
        problems.append(
            f"by_bin query count: sql={sql_queries} "
            f"report={mem_side['queries']}"
        )
    return problems

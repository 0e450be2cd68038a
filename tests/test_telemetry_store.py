"""The self-hosted history store: events in engine tables, SQL rollups."""

import pytest

from repro.database import Database
from repro.exec.scheduler import CooperativeScheduler
from repro.optimizer.planner import PlannerOptions
from repro.telemetry import HistoryStore
from repro.telemetry.rollups import (
    by_bin,
    by_client,
    totals,
    verify_against_report,
)
from repro.telemetry.schema import EVENTS_TABLE, QUERIES_TABLE
from repro.telemetry.store import WAREHOUSE_BUFFER_PAGES
from repro.workloads.micro import build_micro_table

NUM_TUPLES = 12_000

SQL = "SELECT c1, c2 FROM micro WHERE c2 >= :lo AND c2 < :hi"

SMOOTH = PlannerOptions(enable_sort_scan=False, enable_smooth=True)


@pytest.fixture()
def traced_db():
    db = Database()
    build_micro_table(db, num_tuples=NUM_TUPLES, seed=7)
    db.analyze()
    db.tracer.enable()
    return db


def run_scheduled(db, clients=2, queries=3):
    conn = db.connect(options=SMOOTH, cold=False)
    statement = conn.prepare(SQL)
    scheduler = CooperativeScheduler(db)
    for i in range(clients):
        client = scheduler.client(f"c{i + 1}")
        for j in range(queries):
            hi = 10_000 + 10_000 * j
            client.add_query(
                f"q{j}",
                lambda s=statement, p={"lo": 0, "hi": hi}: s.execute(p),
            )
    return scheduler.run(cold=True, interleave=True)


def test_sync_persists_events_and_spans(traced_db):
    report = run_scheduled(traced_db)
    store = HistoryStore()
    ingested = store.ingest(traced_db.tracer.drain())
    assert ingested > 0
    assert store.event_count == ingested
    assert store.query_count == len(report.records)
    # Draining means a second sync ingests nothing new.
    assert store.ingest(traced_db.tracer.drain()) == 0


def test_store_uses_its_own_warehouse_database(traced_db):
    store = HistoryStore()
    store.ingest(traced_db.tracer.drain())
    assert store.db is not traced_db
    assert store.db.config.buffer_pool_pages == WAREHOUSE_BUFFER_PAGES
    # The measured database never grew telemetry tables.
    assert QUERIES_TABLE not in traced_db.tables
    assert QUERIES_TABLE in store.db.tables
    assert EVENTS_TABLE in store.db.tables


def test_query_id_is_btree_indexed_and_joinable(traced_db):
    run_scheduled(traced_db)
    store = HistoryStore()
    store.ingest(traced_db.tracer.drain())
    assert "query_id" in store.db.table(QUERIES_TABLE).indexes
    assert "query_id" in store.db.table(EVENTS_TABLE).indexes
    with store.connect() as conn:
        span = conn.run(
            f"SELECT query_id, rows_out FROM {QUERIES_TABLE} "
            "WHERE run_id = 0"
        ).rows[0]
        drill = conn.run(
            f"SELECT count(*) AS n FROM {EVENTS_TABLE} "
            "WHERE query_id = :qid", {"qid": span[0]}
        ).rows[0]
    assert drill[0] >= 2  # at least query.start + query.finish


def test_rollups_agree_with_workload_report(traced_db):
    report = run_scheduled(traced_db)
    store = HistoryStore()
    store.ingest(traced_db.tracer.drain())
    assert verify_against_report(store, report, run_id=0) == []
    t = totals(store, run_id=0)
    assert t["queries"] == len(report.records)
    assert int(t["rows_out"]) == report.rows
    per_client = by_client(store, run_id=0)
    assert [row["client"] for row in per_client] == ["c1", "c2"]
    assert all(row["queries"] == 3 for row in per_client)
    bins = by_bin(store, run_id=0)
    assert sum(row["queries"] for row in bins) == len(report.records)
    # Bins are emitted in ascending order by the ORDER BY.
    assert [row["bin"] for row in bins] \
        == sorted(row["bin"] for row in bins)


def test_incremental_sync_completes_open_spans(traced_db):
    conn = traced_db.connect(options=SMOOTH, cold=False)
    cursor = conn.cursor().execute(SQL, {"lo": 0, "hi": 50_000})
    cursor.fetchmany(10)  # span open: started, not finished
    store = HistoryStore()
    store.ingest(traced_db.tracer.drain())
    assert store.query_count == 0  # start held back, no finish yet
    cursor.fetchall()
    store.ingest(traced_db.tracer.drain())
    assert store.query_count == 1  # the later sync closed the span
    row = totals(store, run_id=0)
    assert row["queries"] == 1


def test_runs_are_isolated_by_run_id(traced_db):
    report = run_scheduled(traced_db)
    store = HistoryStore()
    events = traced_db.tracer.drain()
    store.ingest(events, run_id=3)
    store.ingest(events, run_id=4)
    for run_id in (3, 4):
        assert totals(store, run_id=run_id)["queries"] \
            == len(report.records)
    assert totals(store, run_id=0)["queries"] == 0


def test_empty_run_rolls_up_to_zeros():
    store = HistoryStore()
    t = totals(store, run_id=9)
    assert t["queries"] == 0
    assert t["rows_out"] == 0.0
    assert by_bin(store, run_id=9) == []

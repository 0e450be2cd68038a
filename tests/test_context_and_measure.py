"""ExecutionContext charging and the measure() harness."""

import pytest

from repro.exec.scans import FullTableScan
from repro.exec.stats import measure
from repro.storage.types import Schema


@pytest.fixture()
def ctx_db(db):
    table = db.load_table("t", Schema.of_ints(["a"]),
                          [(i,) for i in range(1_000)])
    return db, table, db.context()


def test_cpu_charges_accumulate(ctx_db):
    db, _table, ctx = ctx_db
    cpu = db.config.cpu
    charges = [
        (ctx.charge_inspect, cpu.tuple_inspect),
        (ctx.charge_emit, cpu.tuple_emit),
        (ctx.charge_compare, cpu.compare),
        (ctx.charge_hash, cpu.hash_op),
        (ctx.charge_cache_probe, cpu.cache_probe),
        (ctx.charge_cache_insert, cpu.cache_insert),
        (ctx.charge_index_entry, cpu.index_entry),
    ]
    expected = 0.0
    for fn, unit in charges:
        fn()
        expected += unit
        fn(3)
        expected += 3 * unit
    assert db.clock.cpu_ms == pytest.approx(expected)
    assert db.clock.io_ms == 0.0


def test_page_access_charges_io(ctx_db):
    db, table, ctx = ctx_db
    ctx.get_page(table.heap, 0)
    assert db.clock.io_ms > 0
    io_before = db.clock.io_ms
    ctx.get_run(table.heap, 1, 2)
    assert db.clock.io_ms > io_before


def test_measure_cold_resets_between_runs(db):
    table = db.load_table("t", Schema.of_ints(["a"]),
                          [(i,) for i in range(5_000)])
    first = measure(db, FullTableScan(table))
    second = measure(db, FullTableScan(table))
    # Cold runs are reproducible: identical accounting both times.
    assert first.total_ms == pytest.approx(second.total_ms)
    assert first.disk.requests == second.disk.requests
    assert first.buffer_misses == second.buffer_misses


def test_measure_warm_run_is_cheaper(db):
    table = db.load_table("t", Schema.of_ints(["a"]),
                          [(i,) for i in range(500)])
    cold = measure(db, FullTableScan(table), cold=True)
    warm = measure(db, FullTableScan(table), cold=False)
    assert warm.io_ms < cold.io_ms  # pages still buffered


def test_measure_keep_rows_false(db):
    table = db.load_table("t", Schema.of_ints(["a"]),
                          [(i,) for i in range(100)])
    result = measure(db, FullTableScan(table), keep_rows=False)
    assert result.rows == []
    assert result.row_count == 100


def test_run_result_reprs_and_units(db):
    table = db.load_table("t", Schema.of_ints(["a"]),
                          [(i,) for i in range(100)])
    result = measure(db, FullTableScan(table))
    assert result.total_seconds == pytest.approx(result.total_ms / 1000)
    assert result.read_gb == pytest.approx(result.disk.bytes_read / 1e9)
    assert "RunResult" in repr(result)

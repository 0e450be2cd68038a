"""The engine under hostile configurations (no failure is injected).

Every stressor here is a situation a production engine must survive:
pathologically small buffers, one-page sort memory, tight result-cache
limits mid-ordered-scan, string keys, triggers and regions at the table's
edge.  Degenerate table, index and shard *sizes* are in
``tests/test_degenerate_sizes.py``; the cases here are due to follow them.
"""

import random

from repro.config import EngineConfig
from repro.core.smooth_scan import SmoothScan
from repro.core.trigger import OptimizerDrivenTrigger
from repro.database import Database
from repro.exec.expressions import Between, KeyRange
from repro.exec.scans import FullTableScan, IndexScan, SortScan
from repro.exec.sort import Sort
from repro.exec.stats import measure
from repro.storage.types import Column, ColumnType, Schema


def build(config=None, rows=5_000, seed=3):
    db = Database(config=config)
    rng = random.Random(seed)
    table = db.load_table(
        "t", Schema.of_ints(["c1", "c2", "c3"]),
        [(i, rng.randrange(1_000), rng.randrange(10)) for i in range(rows)],
    )
    db.create_index("t", "c2")
    return db, table


def test_one_page_buffer_pool_still_correct():
    db, table = build(EngineConfig(buffer_pool_pages=1))
    expected = sorted(measure(db, FullTableScan(
        table, Between("c2", 0, 500))).rows)
    for plan in (IndexScan(table, "c2", KeyRange(0, 500)),
                 SortScan(table, "c2", KeyRange(0, 500)),
                 SmoothScan(table, "c2", KeyRange(0, 500))):
        assert sorted(measure(db, plan).rows) == expected


def test_one_page_work_mem_sorts_correctly():
    db, table = build(EngineConfig(work_mem_pages=1))
    rows = measure(db, Sort(FullTableScan(table), ["c2"])).rows
    keys = [r[1] for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == table.row_count


def test_tiny_result_cache_limit_under_ordered_scan():
    db, table = build()
    scan = SmoothScan(table, "c2", KeyRange(0, 1000), ordered=True,
                      result_cache_memory_limit=500)
    rows = measure(db, scan).rows
    keys = [r[1] for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == table.row_count
    assert scan.last_stats.result_cache.spills > 0
    assert scan.last_stats.result_cache.unspills > 0


def test_tiny_result_cache_with_non_eager_trigger():
    db, table = build()
    scan = SmoothScan(table, "c2", KeyRange(0, 1000), ordered=True,
                      trigger=OptimizerDrivenTrigger(25),
                      result_cache_memory_limit=500)
    rows = measure(db, scan).rows
    ids = [r[0] for r in rows]
    assert len(ids) == len(set(ids)) == table.row_count


def test_string_keyed_index():
    db = Database()
    schema = Schema([Column("id", ColumnType.INT),
                     Column("name", ColumnType.CHAR, 10)])
    names = ["ant", "bee", "cat", "dog", "eel", "fox"]
    table = db.load_table(
        "t", schema, [(i, names[i % 6]) for i in range(1_200)]
    )
    db.create_index("t", "name")
    scan = SmoothScan(table, "name", KeyRange("bee", "dog",
                                              hi_inclusive=True))
    rows = measure(db, scan).rows
    assert len(rows) == 600  # bee, cat, dog
    assert {r[1] for r in rows} == {"bee", "cat", "dog"}
    ordered = SmoothScan(table, "name",
                         KeyRange("ant", "fox", hi_inclusive=True),
                         ordered=True)
    keys = [r[1] for r in measure(db, ordered).rows]
    assert keys == sorted(keys)


def test_trigger_on_last_tuple():
    """Morph exactly at the final qualifying tuple: nothing remains."""
    db, table = build(rows=1_000)
    total = measure(db, FullTableScan(
        table, Between("c2", 0, 1000))).row_count
    scan = SmoothScan(table, "c2", KeyRange(0, 1000),
                      trigger=OptimizerDrivenTrigger(total - 1))
    rows = measure(db, scan).rows
    assert len(rows) == total


def test_smooth_scan_region_larger_than_table():
    db, table = build(rows=2_000)
    scan = SmoothScan(table, "c2", KeyRange(0, 1000),
                      max_region_pages=10_000)
    rows = measure(db, scan).rows
    assert len(rows) == 2_000
    assert scan.last_stats.pages_fetched == table.num_pages

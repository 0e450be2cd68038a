"""The engine under hostile configurations (no failure is injected).

Every stressor here is a situation a production engine must survive:
tight result-cache limits mid-ordered-scan, string keys, a trigger at the
table's edge.  Degenerate table, index, shard, pool, sort-memory and
region *sizes* are in ``tests/test_degenerate_sizes.py``; the four cases
here are due to follow them.
"""

import random

from repro.core.smooth_scan import SmoothScan
from repro.core.trigger import OptimizerDrivenTrigger
from repro.database import Database
from repro.exec.expressions import Between, KeyRange
from repro.exec.scans import FullTableScan
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

"""The engine under hostile configurations (no failure is injected).

One case is left: a trigger at the table's edge.  Degenerate table,
index, shard, pool, sort-memory, region and result-cache *sizes*, and
string keys, are in ``tests/test_degenerate_sizes.py``; this one is due
to follow them, and real faults to take the file over.
"""

import random

from repro.core.smooth_scan import SmoothScan
from repro.core.trigger import OptimizerDrivenTrigger
from repro.database import Database
from repro.exec.expressions import Between, KeyRange
from repro.exec.scans import FullTableScan
from repro.exec.stats import measure
from repro.storage.types import Schema


def build(config=None, rows=5_000, seed=3):
    db = Database(config=config)
    rng = random.Random(seed)
    table = db.load_table(
        "t", Schema.of_ints(["c1", "c2", "c3"]),
        [(i, rng.randrange(1_000), rng.randrange(10)) for i in range(rows)],
    )
    db.create_index("t", "c2")
    return db, table


def test_trigger_on_last_tuple():
    """Morph exactly at the final qualifying tuple: nothing remains."""
    db, table = build(rows=1_000)
    total = measure(db, FullTableScan(
        table, Between("c2", 0, 1000))).row_count
    scan = SmoothScan(table, "c2", KeyRange(0, 1000),
                      trigger=OptimizerDrivenTrigger(total - 1))
    rows = measure(db, scan).rows
    assert len(rows) == total

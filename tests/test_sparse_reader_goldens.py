"""The sparse readers read rows out of the heap image: nothing they charge
may move.

``READER_GOLDEN`` was recorded at the commit before pages became windows
(when ``HeapPage`` held its row tuples and each of these readers did a
``page.get(slot)`` / ``page.all_rows()`` inside its charge loop) by
running conftest's ``observe_plan`` over ``READER_CASES`` there — the
form ``SORT_GOLDEN`` is kept in: row count and SHA-256 of ``repr(rows)``,
the batch lengths, and length + SHA-256 of the clock's counts of each
kind per batch.  The cases are the readers that had no such golden: INLJ
classic and smooth, Switch Scan's phase 1, Smooth Scan's Mode 0 and its
ordered / Result Cache hand-off, and the morphing index join.
"""

import pytest

from repro.config import EngineConfig
from repro.core.morph_join import MorphingIndexJoin
from repro.core.smooth_scan import SmoothScan
from repro.core.switch_scan import SwitchScan
from repro.core.trigger import OptimizerDrivenTrigger, SLADrivenTrigger
from repro.database import Database
from repro.exec.expressions import (
    Between,
    ColumnComparison,
    CompareOp,
    KeyRange,
)
from repro.exec.joins import HashJoin, IndexNestedLoopJoin
from repro.exec.scans import FullTableScan
from repro.exec.stats import measure
from repro.storage.types import Column, ColumnType, Schema

_INNER = Schema([Column("i_id"), Column("i_key"), Column("i_val"),
                 Column("i_tag", ColumnType.CHAR, 8)])
_OUTER = Schema([Column("o_id"), Column("o_key"), Column("o_val")])


def build_reader_tables(db):
    """A 9,000-row inner table (CHAR column, so the image carries an
    object column; 60 rows per key spread over many pages, a short last
    page) and a 7,000-row outer — three extents, so three outer batches —
    whose keys repeat and sometimes miss."""
    inner = db.load_table("inner_t", _INNER, [
        (i, (i * 37) % 150, i % 11, f"t{i % 3}") for i in range(9_013)])
    db.create_index("inner_t", "i_key")
    outer = db.load_table("outer_t", _OUTER, [
        (i, (i * 13) % 170, i % 7) for i in range(7_000)])
    return outer, inner


def _inlj(db, access, residual=None):
    outer, inner = build_reader_tables(db)
    return IndexNestedLoopJoin(FullTableScan(outer, Between("o_val", 0, 1)),
                               inner, "i_key", "o_key", residual=residual,
                               inner_access=access)


def _morph_join(db, residual=None):
    outer, inner = build_reader_tables(db)
    return MorphingIndexJoin(FullTableScan(outer, Between("o_val", 0, 2)),
                             inner, "i_key", "o_key", residual=residual)


def _scan(db, cls, *args, **kwargs):
    _outer, inner = build_reader_tables(db)
    return cls(inner, "i_key", *args, **kwargs)


_VAL_BELOW = ColumnComparison("o_val", CompareOp.LT, "i_val")

READER_CASES = {
    "inlj/classic": lambda db: _inlj(db, "classic"),
    "inlj/classic-residual": lambda db: _inlj(db, "classic", _VAL_BELOW),
    "inlj/smooth": lambda db: _inlj(db, "smooth"),
    "inlj/smooth-residual": lambda db: _inlj(db, "smooth", _VAL_BELOW),
    "morph-join/plain": _morph_join,
    "morph-join/residual": lambda db: _morph_join(db, _VAL_BELOW),
    "switch/stays-index": lambda db: _scan(
        db, SwitchScan, KeyRange(0, 20), threshold=5_000),
    "switch/stays-index-residual": lambda db: _scan(
        db, SwitchScan, KeyRange(0, 40), residual=Between("i_val", 2, 5),
        threshold=5_000),
    "switch/switches-mid-leaf": lambda db: _scan(
        db, SwitchScan, KeyRange(0, 60), threshold=1_500),
    "smooth/mode0-never-morphs": lambda db: _scan(
        db, SmoothScan, KeyRange(0, 30),
        trigger=OptimizerDrivenTrigger(50_000)),
    "smooth/mode0-then-morphs": lambda db: _scan(
        db, SmoothScan, KeyRange(0, 60), residual=Between("i_val", 0, 8),
        trigger=OptimizerDrivenTrigger(1_200)),
    "smooth/mode0-then-ordered": lambda db: _scan(
        db, SmoothScan, KeyRange(0, 40), trigger=SLADrivenTrigger(300),
        ordered=True),
    "smooth/ordered": lambda db: _scan(
        db, SmoothScan, KeyRange(10, 70), ordered=True),
    "smooth/ordered-residual-spills": lambda db: _scan(
        db, SmoothScan, KeyRange(0, 100), residual=Between("i_val", 1, 9),
        ordered=True, result_cache_memory_limit=16_384),
}

#: Cases that run against an 8-page pool, where re-fetched inner pages
#: are honest misses (the LRU transitions are part of the charge record).
_SMALL_POOL = {"inlj/classic-residual", "inlj/smooth",
               "smooth/mode0-then-morphs"}

READER_GOLDEN = {
    "inlj/classic": {
        "batches": [25837, 25837, 1382],
        "cpu": [4, "e9c3cbafce587f70"],
        "io": [4, "7a675ed7f53ded08"],
        "rows": [53056, "eedf7549be2b33b9"],
    },
    "inlj/classic-residual": {
        "batches": [23486, 23488, 1255],
        "cpu": [4, "5fbf58a772983a86"],
        "io": [4, "908ea4c2b8497976"],
        "rows": [48229, "2defa731c3cad6d1"],
    },
    "inlj/smooth": {
        "batches": [25837, 25837, 1382],
        "cpu": [4, "813a266dc853c107"],
        "io": [4, "908ea4c2b8497976"],
        "rows": [53056, "eedf7549be2b33b9"],
    },
    "inlj/smooth-residual": {
        "batches": [23486, 23488, 1255],
        "cpu": [4, "f9c2a0fb60661115"],
        "io": [4, "7a675ed7f53ded08"],
        "rows": [48229, "2defa731c3cad6d1"],
    },
    "morph-join/plain": {
        "batches": [51675, 51615, 2823],
        "cpu": [4, "ec55ceaa4ec4d1fe"],
        "io": [4, "dcbe719da1b95999"],
        "rows": [106113, "ea974381290547c2"],
    },
    "morph-join/residual": {
        "batches": [44621, 44577, 2432],
        "cpu": [4, "669d183c0237ef57"],
        "io": [4, "dcbe719da1b95999"],
        "rows": [91630, "4bf3cf9a838b73b8"],
    },
    "smooth/mode0-never-morphs": {
        "batches": [1024, 777],
        "cpu": [3, "b695e54f0b2d9bec"],
        "io": [3, "45a841631afb77b5"],
        "rows": [1801, "e98147026667860d"],
    },
    "smooth/mode0-then-morphs": {
        "batches": [1024, 1596],
        "cpu": [3, "8d4ef01e20b1dea9"],
        "io": [3, "d73caa5da38a50e6"],
        "rows": [2620, "3ad5942848204e50"],
    },
    "smooth/mode0-then-ordered": {
        "batches": [1024, 1024, 356],
        "cpu": [4, "41ef4fafe2d19dee"],
        "io": [4, "b84b75500bf7704a"],
        "rows": [2404, "5943c327418b9134"],
    },
    "smooth/ordered": {
        "batches": [1024, 1024, 1024, 531],
        "cpu": [5, "54b304e0aa601bb4"],
        "io": [5, "3284423131721180"],
        "rows": [3603, "09d3ae7cec41e975"],
    },
    "smooth/ordered-residual-spills": {
        "batches": [1024, 1024, 1024, 1024, 273],
        "cpu": [6, "e3238da7104e59b2"],
        "io": [6, "410b262dd3de0774"],
        "rows": [4369, "3af8a68f5f802472"],
    },
    "switch/stays-index": {
        "batches": [1024, 177],
        "cpu": [3, "2465cc49254ada4e"],
        "io": [3, "094d44ab8a394f6d"],
        "rows": [1201, "f6410ed8f0dd4b9e"],
    },
    "switch/stays-index-residual": {
        "batches": [655],
        "cpu": [2, "9e7105115af4ea23"],
        "io": [2, "9f1c26db5309b884"],
        "rows": [655, "6c91c7e38306f8e2"],
    },
    "switch/switches-mid-leaf": {
        "batches": [1024, 477, 650, 650, 649, 154],
        "cpu": [7, "d8a508cd3f3f367d"],
        "io": [7, "9480cc43bdd4af3f"],
        "rows": [3604, "8b13d89f1578348e"],
    },
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_sparse_reader_keeps_rows_batches_and_charges(case, observe_plan):
    db = Database(config=EngineConfig(buffer_pool_pages=8)
                  if case in _SMALL_POOL else None)
    plan = READER_CASES[case](db)
    rows, observed = observe_plan(db, plan)
    assert observed == READER_GOLDEN[case]
    assert rows  # every case reads something
    # ... and the rows are right, not merely unchanged.
    if case.startswith(("inlj", "morph-join")):
        outer, inner = plan.children()[0], plan.inner_table
        wanted = measure(db, HashJoin(
            outer, FullTableScan(inner), ["o_key"], ["i_key"])).rows
    else:
        wanted = measure(db, FullTableScan(plan.table, Between(
            "i_key", plan.key_range.lo, plan.key_range.hi))).rows
    keep = plan.residual.bind(plan.schema)
    wanted = [r for r in wanted if keep(r)]
    assert sorted(rows) == sorted(wanted)
    if getattr(plan, "ordered", False):
        assert [r[1] for r in rows] == sorted(r[1] for r in rows)

"""The three baseline access paths: results, ordering, and cost shapes."""

import pytest

from repro.exec.expressions import Between, KeyRange
from repro.exec.scans import FullTableScan, IndexScan, SortScan, _contiguous_runs
from repro.exec.stats import measure


def paths(table, lo, hi):
    return {
        "full": FullTableScan(table, Between("c2", lo, hi)),
        "index": IndexScan(table, "c2", KeyRange(lo, hi)),
        "sort": SortScan(table, "c2", KeyRange(lo, hi)),
    }


def test_all_paths_agree(small_table):
    db, table = small_table
    results = {
        name: sorted(measure(db, plan).rows)
        for name, plan in paths(table, 100, 300).items()
    }
    assert results["full"] == results["index"] == results["sort"]
    assert len(results["full"]) > 0


def test_index_scan_emits_in_key_order(small_table):
    db, table = small_table
    rows = measure(db, IndexScan(table, "c2", KeyRange(0, 500))).rows
    keys = [r[1] for r in rows]
    assert keys == sorted(keys)


def test_sort_scan_emits_in_physical_order(small_table):
    db, table = small_table
    scan = SortScan(table, "c2", KeyRange(0, 500))
    rows = measure(db, scan).rows
    ids = [r[0] for r in rows]  # c1 is the insertion order
    assert ids == sorted(ids)


def test_full_scan_cost_is_selectivity_independent(small_table):
    db, table = small_table
    narrow = measure(db, FullTableScan(table, Between("c2", 0, 1)))
    wide = measure(db, FullTableScan(table, Between("c2", 0, 999)))
    assert narrow.io_ms == pytest.approx(wide.io_ms)
    assert narrow.disk.pages_read == wide.disk.pages_read


def test_index_scan_cost_grows_with_selectivity():
    # A buffer-constrained database so repeated random I/O actually pays.
    import random
    from repro.config import EngineConfig
    from repro.database import Database
    from repro.storage.types import Schema
    db = Database(config=EngineConfig(buffer_pool_pages=8))
    rng = random.Random(1)
    table = db.load_table(
        "t", Schema.of_ints(["c1", "c2", "c3"]),
        [(i, rng.randrange(1000), 0) for i in range(5_000)],
    )
    db.create_index("t", "c2")
    narrow = measure(db, IndexScan(table, "c2", KeyRange(0, 10)))
    wide = measure(db, IndexScan(table, "c2", KeyRange(0, 500)))
    assert wide.total_ms > narrow.total_ms * 5


def test_index_scan_beats_full_at_tiny_selectivity(small_table):
    db, table = small_table
    idx = measure(db, IndexScan(table, "c2", KeyRange(0, 1)))
    full = measure(db, FullTableScan(table, Between("c2", 0, 1)))
    assert idx.total_ms < full.total_ms


def test_full_beats_index_at_high_selectivity(small_table):
    db, table = small_table
    idx = measure(db, IndexScan(table, "c2", KeyRange(0, 999)))
    full = measure(db, FullTableScan(table, Between("c2", 0, 999)))
    assert full.total_ms < idx.total_ms


def test_sort_scan_fetches_each_result_page_once(small_table):
    db, table = small_table
    scan = SortScan(table, "c2", KeyRange(0, 999))
    result = measure(db, scan)
    # Index leaves + each heap page at most once: far below index scan's
    # one-fetch-per-tuple behaviour.
    assert result.disk.pages_read <= table.num_pages + \
        table.index_on("c2").num_pages + 5


def test_index_scan_refetches_pages(small_table):
    db, table = small_table
    result = measure(db, IndexScan(table, "c2", KeyRange(0, 999)))
    assert result.disk.pages_read > table.num_pages  # repeated accesses


def test_full_scan_requests_batched_by_extent(small_table):
    db, table = small_table
    result = measure(db, FullTableScan(table))
    expected = -(-table.num_pages // db.config.extent_pages)
    assert result.disk.requests == expected


def test_empty_range(small_table):
    db, table = small_table
    for plan in paths(table, 2000, 3000).values():
        assert measure(db, plan).rows == []


def test_residual_predicate_applied(small_table):
    db, table = small_table
    residual = Between("c3", 0, 5)
    rows = measure(
        db, IndexScan(table, "c2", KeyRange(0, 500), residual=residual)
    ).rows
    assert all(0 <= r[2] < 5 for r in rows)
    sort_rows = measure(
        db, SortScan(table, "c2", KeyRange(0, 500), residual=residual)
    ).rows
    assert sorted(rows) == sorted(sort_rows)


def test_contiguous_runs_grouping():
    assert list(_contiguous_runs([1, 2, 3, 7, 8, 12])) == [
        (1, 3), (7, 2), (12, 1)
    ]
    assert list(_contiguous_runs([5])) == [(5, 1)]
    assert list(_contiguous_runs([])) == []


def test_scan_on_empty_table(db):
    from repro.storage.types import Schema
    table = db.load_table("empty", Schema.of_ints(["a", "b"]), [])
    db.create_index("empty", "b")
    assert measure(db, FullTableScan(table)).rows == []
    assert measure(db, IndexScan(table, "b", KeyRange(0, 10))).rows == []
    assert measure(db, SortScan(table, "b", KeyRange(0, 10))).rows == []


# -- SortScan's dense branch gathers per extent: nothing it charges may move --
#
# ``SORT_GOLDEN`` was recorded at the commit before the per-extent gather
# (when the dense branch took, filtered and concatenated page by page) by
# running conftest's ``observe_plan`` over ``SORT_CASES`` there: row count
# and SHA-256 of ``repr(rows)``, the batch lengths, and length + SHA-256 of
# the exact argument sequences of ``SimClock.charge_cpu`` / ``charge_io``.

_HOT_PAGES = frozenset([*range(5, 40), 50, *range(64, 80), *range(88, 91)])


def build_banded_table(db):
    """91 pages whose ``c2 < 10`` rows sit in chosen page bands.

    Dense runs start and end mid-extent (pages 5-39), fill one extent
    exactly (64-79), are a lone page (50) and include the short last
    page (88-90, 37 rows on page 90); every 1,500th row is a stray hit
    on an otherwise cold page (sparse single-page runs).  ``tag`` is a
    CHAR column, so the chunks carry an object column too.
    """
    from repro.storage.types import Column, ColumnType, Schema

    schema = Schema([Column("c1"), Column("c2"), Column("c3"),
                     Column("tag", ColumnType.CHAR, 8)])
    per_page = db.config.tuples_per_page(
        schema.tuple_size(db.config.tuple_header))
    rows = []
    for i in range(90 * per_page + 37):
        if i // per_page in _HOT_PAGES:
            c2 = i % 10
        elif i % 1500 == 0:
            c2 = 3
        else:
            c2 = 100 + (i * 7919) % 9000
        rows.append((i, c2, i % 5, f"t{i % 3}"))
    table = db.load_table("banded", schema, rows)
    db.create_index("banded", "c2")
    return table


def _banded(db, **kwargs):
    return SortScan(build_banded_table(db), "c2", **kwargs)


def _banded_shard(db, **kwargs):
    build_banded_table(db)
    db.shard_table("banded", 3, "round_robin")
    shard = db.table("banded#1")
    assert shard.heap.row_count % shard.heap.tuples_per_page  # short tail
    return SortScan(shard, "c2", **kwargs)


SORT_CASES = {
    "sort/bands": lambda db: _banded(db, key_range=KeyRange(0, 10)),
    "sort/bands-residual": lambda db: _banded(
        db, key_range=KeyRange(0, 10), residual=Between("c3", 1, 3)),
    "sort/bands-residual-none-pass": lambda db: _banded(
        db, key_range=KeyRange(0, 10), residual=Between("c3", 7, 9)),
    "sort/whole-heap": lambda db: _banded(db),
    "sort/cold-only": lambda db: _banded(db, key_range=KeyRange(100, 4000)),
    "sort/shard": lambda db: _banded_shard(db, key_range=KeyRange(0, 10)),
    "sort/shard-residual": lambda db: _banded_shard(
        db, key_range=KeyRange(0, 10), residual=Between("c3", 1, 3)),
}


SORT_GOLDEN = {
    "sort/bands": {
        "batches": [1, 6090, 1, 175, 1, 2784, 1, 385],
        "cpu": [75, "4eab8ec92da2bf88"],
        "io": [23, "3ba54260d809b614"],
        "rows": [9438, "4ff113e1ecca1c47"],
    },
    "sort/bands-residual": {
        "batches": [2436, 70, 1114, 154],
        "cpu": [71, "ae279483bdbe1239"],
        "io": [23, "3ba54260d809b614"],
        "rows": [3774, "daa3be69c84d092d"],
    },
    "sort/bands-residual-none-pass": {
        "batches": [],
        "cpu": [67, "aa0c4d52f8406744"],
        "io": [23, "3ba54260d809b614"],
        "rows": [0, "4f53cda18c2baa0c"],
    },
    "sort/cold-only": {
        "batches": [375, 752, 981, 601],
        "cpu": [44, "3aa87f98d68ef31d"],
        "io": [12, "d89c46bdd7db15c7"],
        "rows": [2709, "e835b4d32a704cde"],
    },
    "sort/shard": {
        "batches": [2030, 58, 928, 128],
        "cpu": [29, "c6aa4f74cfe879ab"],
        "io": [11, "529a676aee10256c"],
        "rows": [3144, "41faed01c932cc9f"],
    },
    "sort/shard-residual": {
        "batches": [812, 24, 371, 51],
        "cpu": [29, "623a7f2721375d64"],
        "io": [11, "529a676aee10256c"],
        "rows": [1258, "fb65f9c64f3a9b18"],
    },
    "sort/whole-heap": {
        "batches": [15697],
        "cpu": [103, "ec3a9010065b5a13"],
        "io": [13, "cb52aac89517eb69"],
        "rows": [15697, "5b40ac2466a18ee7"],
    },
}


@pytest.mark.parametrize("case", sorted(SORT_CASES))
def test_sort_scan_extent_gather_keeps_rows_batches_and_charges(
        db, case, observe_plan):
    plan = SORT_CASES[case](db)
    rows, observed = observe_plan(db, plan)
    assert observed == SORT_GOLDEN[case]
    # ... and the rows are right, not merely unchanged: physical order,
    # equal to a full scan with the same predicate.
    lo, hi = plan.key_range.lo, plan.key_range.hi
    wanted = [r for r in measure(db, FullTableScan(plan.table)).rows
              if (lo is None or r[1] >= lo) and (hi is None or r[1] < hi)
              and plan.residual.bind(plan.schema)(r)]
    assert rows == wanted


def test_sort_scan_dense_gather_reuses_the_full_scan_cache_keys(db):
    table = build_banded_table(db)
    heap = table.heap
    measure(db, FullTableScan(table))
    keys = set(heap._run_chunks)
    assert keys == {(s, min(16, heap.num_pages - s))
                    for s in range(0, heap.num_pages, 16)}
    measure(db, SortScan(table, "c2", KeyRange(0, 10)))
    measure(db, SortScan(table, "c2"))
    assert set(heap._run_chunks) == keys


def test_sort_scan_banded_runs_are_the_intended_shapes(db, observe_plan):
    # Guard the fixture itself: the dense runs really are mid-extent.
    plan = _banded(db, key_range=KeyRange(0, 10))
    per_page = plan.table.heap.tuples_per_page
    lengths = observe_plan(db, plan)[1]["batches"]
    assert 35 * per_page in lengths          # pages 5-39
    assert 16 * per_page in lengths          # pages 64-79
    assert 2 * per_page + 37 in lengths      # pages 88-90, short tail
    assert lengths.count(1) >= 3             # stray single-row runs

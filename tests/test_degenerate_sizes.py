"""Degenerate sizes: tables, indexes and shards of zero, one or all-equal.

No failure is injected here — every case is a *size* at the edge of what
the storage and index layers are built for: tables, indexes and shards
of zero and one, a one-page pool, one page of sort memory, a result
cache of a few entries, a region larger than the table or capped at one
page, a range that no row or every row satisfies, a trigger on the last
qualifying tuple, and the heap's block and page boundaries.  Injected
faults are in ``tests/test_failure_injection.py``.
"""

import random

import pytest

from repro.config import EngineConfig
from repro.core.smooth_scan import SmoothScan
from repro.core.trigger import OptimizerDrivenTrigger
from repro.database import Database
from repro.exec.exchange import Exchange, ShardedScan
from repro.exec.expressions import Between, KeyRange
from repro.exec.scans import FullTableScan, IndexScan, SortScan
from repro.exec.sort import Sort
from repro.exec.stats import measure
from repro.storage.heap import BLOCK_PAGES, HeapFile
from repro.storage.types import Column, ColumnType, Schema

AB = Schema.of_ints(["a", "b"])


def build(config=None, rows=5_000, seed=3):
    db = Database(config=config)
    rng = random.Random(seed)
    table = db.load_table(
        "t", Schema.of_ints(["c1", "c2", "c3"]),
        [(i, rng.randrange(1_000), rng.randrange(10)) for i in range(rows)],
    )
    db.create_index("t", "c2")
    return db, table


def index_paths(table, key_range):
    return (IndexScan(table, "b", key_range),
            SortScan(table, "b", key_range),
            SmoothScan(table, "b", key_range),
            SmoothScan(table, "b", key_range, ordered=True))


def test_single_row_table():
    db = Database()
    table = db.load_table("t", AB, [(1, 5)])
    db.create_index("t", "b")
    for plan in (FullTableScan(table),
                 IndexScan(table, "b", KeyRange(0, 10)),
                 SmoothScan(table, "b", KeyRange(0, 10))):
        assert measure(db, plan).rows == [(1, 5)]


def test_single_distinct_key_ordered_smooth():
    """Result-cache partitioning degenerates to one partition."""
    db = Database()
    table = db.load_table("t", AB, [(i, 42) for i in range(3_000)])
    db.create_index("t", "b")
    scan = SmoothScan(table, "b", KeyRange.equal(42), ordered=True)
    rows = measure(db, scan).rows
    assert len(rows) == 3_000


def test_max_region_one_page_table():
    db = Database()
    table = db.load_table("t", AB, [(i, i) for i in range(50)])
    db.create_index("t", "b")
    scan = SmoothScan(table, "b", KeyRange.all())
    assert len(measure(db, scan).rows) == 50
    assert scan.last_stats.pages_fetched == 1


def test_empty_index_reads_nothing_and_charges_nothing():
    db = Database()
    table = db.load_table("t", AB, [])
    index = db.create_index("t", "b")
    assert len(index) == 0
    assert (index.num_leaves, index.height, index.num_pages) == (1, 1, 1)
    assert index.range_positions(None, None) == (0, 0)
    ctx = db.cold_run()
    assert list(index.scan_batches(ctx, 0, 10)) == []
    assert index.scan_tids(ctx).tolist() == []
    assert list(index.scan_leaf_tids(ctx)) == []
    assert list(index.lookup(ctx, 5)) == []
    # No entry, so not even the descent that finds a range empty.
    assert (db.clock.io_ms, db.clock.cpu_ms) == (0.0, 0.0)
    for plan in index_paths(table, KeyRange(0, 10)):
        assert measure(db, plan).rows == []


def test_one_entry_index():
    db = Database()
    table = db.load_table("t", AB, [(1, 5)])
    index = db.create_index("t", "b")
    assert index.peek_range_tids(None, None).tolist() == [0]
    ctx = db.cold_run()
    assert list(index.lookup(ctx, 5)) == [0]
    assert list(index.lookup(ctx, 4)) == []
    for key_range, rows in ((KeyRange(0, 10), [(1, 5)]),
                            (KeyRange(5, 5, hi_inclusive=True), [(1, 5)]),
                            (KeyRange(5, 5), []),
                            (KeyRange(6, None), [])):
        for plan in index_paths(table, key_range):
            assert measure(db, plan).rows == rows


def test_all_equal_keys_keep_tid_order():
    """A stable sort on the key alone: equal keys stay in heap order."""
    db = Database()
    table = db.load_table("t", AB, [(i, 7) for i in range(1_000)])
    index = db.create_index("t", "b")
    ctx = db.cold_run()
    assert list(index.lookup(ctx, 7)) == list(range(1_000))
    assert list(index.scan_batches(ctx, 7, 7)) == []
    assert index.range_positions(7, 7, True, True) == (0, 1_000)
    assert index.range_positions(7, None, False) == (1_000, 1_000)
    assert index.root_key_separators(16) == [7]
    for plan in index_paths(table, KeyRange.equal(7)):
        assert measure(db, plan).rows == [(i, 7) for i in range(1_000)]


def test_insert_into_an_empty_tree():
    db = Database()
    table = db.create_table("t", AB)
    index = db.create_index("t", "b")
    assert db.append_rows("t", [(0, 9), (1, 3), (2, 9), (3, 3)]) == 4
    assert [(k, t) for keys, tids in index.scan_batches(db.context())
            for k, t in zip(keys, tids)] == [(3, 1), (3, 3), (9, 0), (9, 2)]
    # The same tree a build over the loaded heap gives.
    db.drop_index("t", "b")
    rebuilt = db.create_index("t", "b")
    assert list(rebuilt.scan_batches(db.context())) == \
        list(index.scan_batches(db.context()))
    for plan in index_paths(table, KeyRange(0, 5)):
        assert measure(db, plan).rows == [(1, 3), (3, 3)]


@pytest.mark.parametrize("scheme", ["round_robin", "range"])
def test_a_shard_that_receives_zero_rows(scheme):
    """Two rows over four shards: the empty shards are tables too."""
    db = Database()
    db.load_table("t", AB, [(0, 4), (1, 4)])
    db.create_index("t", "b")
    shard_set = db.shard_table("t", 4, scheme, "b" if scheme == "range"
                               else None)
    sizes = [shard.row_count for shard in shard_set.shards]
    assert sum(sizes) == 2 and sizes.count(0) >= 2
    for shard in shard_set.shards:
        index = shard.index_on("b")
        assert len(index) == shard.row_count
        assert db.catalog.table_stats(shard.name).row_count \
            == shard.row_count
    plan = Exchange([
        ShardedScan(IndexScan(shard, "b", KeyRange(0, 10)), shard.name, i)
        for i, shard in enumerate(shard_set.shards)
    ], table_name="t")
    assert sorted(measure(db, plan).rows) == [(0, 4), (1, 4)]


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


def test_smooth_scan_region_larger_than_table():
    db, table = build(rows=2_000)
    scan = SmoothScan(table, "c2", KeyRange(0, 1000),
                      max_region_pages=10_000)
    rows = measure(db, scan).rows
    assert len(rows) == 2_000
    assert scan.last_stats.pages_fetched == table.num_pages


def test_trigger_on_last_tuple():
    """Morph exactly at the final qualifying tuple: nothing remains."""
    db, table = build(rows=1_000)
    total = measure(db, FullTableScan(
        table, Between("c2", 0, 1000))).row_count
    scan = SmoothScan(table, "c2", KeyRange(0, 1000),
                      trigger=OptimizerDrivenTrigger(total - 1))
    rows = measure(db, scan).rows
    assert len(rows) == total


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


# -- Smooth Scan's own edges: what a run's cut can come back with --------------


def test_range_no_row_satisfies_still_fetches_its_regions():
    """Every entry is in the key range and the residual drops them all:
    each page is fetched, probed and marked, and none has a result."""
    db, table = build(rows=2_000)
    scan = SmoothScan(table, "c2", KeyRange(0, 1_000),
                      residual=Between("c3", 10, 20))
    result = measure(db, scan)
    stats = scan.last_stats
    assert result.rows == [] and stats.produced == 0
    assert stats.pages_fetched == table.num_pages
    assert stats.pages_with_results == 0
    assert stats.probes == table.row_count
    assert 1 <= len(stats.region_trace) <= table.num_pages


def test_range_every_row_satisfies_hands_out_ranges(monkeypatch):
    """Every run's selection is a ``range`` over the image — no position
    array is cut — and the short last page's run ends where the table
    does."""
    from repro.core.qualifying import QualifyingPositions

    cuts = []
    cut = QualifyingPositions.cut
    monkeypatch.setattr(QualifyingPositions, "cut", lambda self, lo, hi: (
        cuts.append(cut(self, lo, hi)), cuts[-1])[1])
    db, table = build(rows=2_000)
    assert table.row_count % table.heap.tuples_per_page  # a short last page
    for kwargs in ({}, {"residual": Between("c3", 0, 10)},
                   {"key_range": KeyRange(0, 1_000)}):
        del cuts[:]
        scan = SmoothScan(table, "c2", **kwargs)
        assert sorted(measure(db, scan).rows) == sorted(
            measure(db, FullTableScan(table)).rows)
        stats = scan.last_stats
        assert stats.pages_with_results == stats.pages_fetched \
            == table.num_pages
        assert all(type(sel) is range for sel, _pages in cuts)
        assert sum(len(sel) for sel, _pages in cuts) == table.row_count
        assert sum(pages for _sel, pages in cuts) == table.num_pages


def test_one_page_table_under_every_smooth_configuration():
    db = Database()
    table = db.load_table("t", AB, [(i, i % 5) for i in range(40)])
    db.create_index("t", "b")
    assert table.num_pages == 1
    for kwargs in ({}, {"ordered": True}, {"max_mode": 1},
                   {"trigger": OptimizerDrivenTrigger(3)},
                   {"trigger": OptimizerDrivenTrigger(3), "ordered": True},
                   {"residual": Between("a", 10, 30)}):
        scan = SmoothScan(table, "b", KeyRange(1, 4), **kwargs)
        wanted = [(i, i % 5) for i in range(40) if 1 <= i % 5 < 4
                  and ("residual" not in kwargs or 10 <= i < 30)]
        assert sorted(measure(db, scan).rows) == wanted, kwargs
        assert scan.last_stats.pages_fetched == 1


def test_region_cap_of_one_page():
    """Every run is one page: charged call by call, cut by two searches."""
    db, table = build(rows=2_000)
    capped = SmoothScan(table, "c2", KeyRange(0, 500), max_region_pages=1)
    mode1 = SmoothScan(table, "c2", KeyRange(0, 500), max_mode=1)
    got, same = measure(db, capped), measure(db, mode1)
    assert sorted(got.rows) == sorted(measure(db, FullTableScan(
        table, Between("c2", 0, 500))).rows)
    assert capped.last_stats.max_region_used == 1
    assert len(capped.last_stats.region_trace) \
        == capped.last_stats.pages_fetched == table.num_pages
    # The cap is Entire Page Probe by another name, to the last charge.
    assert (got.rows, got.io_ms, got.cpu_ms) == (
        same.rows, same.io_ms, same.cpu_ms)


# -- the heap's own edges: the image, the pending block, page arithmetic -----


def _page_lengths(heap):
    """Rows per page, by arithmetic: every page is full but the last."""
    per_page = heap.tuples_per_page
    return [min(per_page, heap.row_count - p * per_page)
            for p in range(heap.num_pages)]


def test_empty_heap_image():
    heap = HeapFile(file_id=0, schema=AB, tuples_per_page=4)
    image = heap.image()
    assert len(image) == 0 and image.names == ("a", "b")
    assert heap.num_pages == heap.row_count == 0
    assert heap.run_chunk(0, 1).to_rows() == []
    assert heap.extend([]) == 0 and heap.image() is image


def test_partial_last_page():
    heap = HeapFile(file_id=0, schema=AB, tuples_per_page=4)
    assert heap.extend((i, -i) for i in range(6)) == 6
    assert _page_lengths(heap) == [4, 2]
    assert heap.run_chunk(1, 1).to_rows() == [(4, -4), (5, -5)]
    assert heap.row(5) == (5, -5)
    # The short page fills in place: no new page.
    assert heap.append((6, -6)) == 6
    assert _page_lengths(heap) == [4, 3] == [
        len(heap.run_chunk(p, 1)) for p in range(2)]
    assert heap.row(6) == (6, -6)


@pytest.mark.parametrize("extra", [0, 1])
def test_block_boundary_on_a_page_boundary(extra):
    """A load of exactly one block (a whole number of pages) folds with
    nothing pending; one more row waits as the only pending tuple."""
    per_page = 2
    block = BLOCK_PAGES * per_page
    heap = HeapFile(file_id=0, schema=AB, tuples_per_page=per_page)
    rows = [(i, i % 7) for i in range(block + extra)]
    assert heap.extend(iter(rows)) == len(rows)
    assert len(heap._pending) == extra
    assert heap.num_pages == BLOCK_PAGES + extra
    assert _page_lengths(heap) == [per_page] * BLOCK_PAGES + [1] * extra
    assert heap.row(block - 1) == rows[block - 1]
    assert heap.image()[:].to_rows() == rows
    assert not heap._pending and len(heap.image()) == len(rows)


def test_one_row_appended_after_the_image_was_handed_out():
    heap = HeapFile(file_id=0, schema=AB, tuples_per_page=4)
    heap.extend((i, i) for i in range(4))
    image = heap.image()
    held = image[2:]
    assert heap.append((4, 4)) == 4
    assert heap.row_count == 5 and heap.num_pages == 2
    # The old image and what was cut from it still read the old rows ...
    assert len(image) == 4 and held.to_rows() == [(2, 2), (3, 3)]
    # ... and the next reader sees the new one, on its own page.
    assert len(heap.image()) == 5 and heap.image() is not image
    assert heap.run_chunk(1, 1).to_rows() == [(4, 4)]
    assert heap.row(4) == (4, 4)

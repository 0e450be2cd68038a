"""B+-tree behaviour: ordering, ranges, charging, and invariants."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.database import Database
from repro.errors import UnknownPageError
from repro.index import layout
from repro.index.btree import BTreeIndex
from repro.storage.buffer import BufferPool
from repro.runtime import CostLedger
from repro.storage.disk import (KINDS, RAND_PAGE, SEQ_PAGE, SimClock,
                                SimulatedDisk)
from repro.storage.types import Column, ColumnType, Schema


def make_index(keys, key_size=4):
    """A tree over ``keys``, key ``i`` at TID ``i``."""
    index = BTreeIndex("idx", file_id=9, key_size=key_size)
    index.load_column(list(keys))
    return index


def entries(index, ctx=None, *bounds, **inclusive):
    """The ``(key, TID)`` entries of a range of ``index``, in index order."""
    ctx = ctx or Database().context()
    return [entry for keys, tids in index.scan_batches(ctx, *bounds,
                                                        **inclusive)
            for entry in zip(keys, tids, strict=True)]


@pytest.fixture()
def ctx_and_index(db):
    table = db.load_table(
        "t", Schema.of_ints(["a", "b"]),
        ((i, (i * 37) % 100) for i in range(2_000)),
    )
    index = db.create_index("t", "b")
    return db, db.context(), table, index


def test_bulk_load_sorts(ctx_and_index):
    _db, ctx, _table, index = ctx_and_index
    keys = [k for k, _t in entries(index, ctx)]
    assert keys == sorted(keys)
    assert len(keys) == 2_000


def test_strict_key_tid_order(ctx_and_index):
    _db, ctx, _table, index = ctx_and_index
    pairs = entries(index, ctx)
    assert pairs == sorted(pairs, key=lambda e: (e[0], e[1]))


def test_range_scan_bounds(ctx_and_index):
    _db, ctx, _table, index = ctx_and_index
    keys = [k for k, _t in entries(index, ctx, 10, 20)]
    assert keys and all(10 <= k < 20 for k in keys)
    keys_inc = [k for k, _t in entries(index, ctx, 10, 20,
                                       hi_inclusive=True)]
    assert max(keys_inc) == 20
    keys_exc = [k for k, _t in entries(index, ctx, 10, 20,
                                       lo_inclusive=False)]
    assert min(keys_exc) > 10


def test_empty_range_yields_nothing(ctx_and_index):
    _db, ctx, _table, index = ctx_and_index
    assert entries(index, ctx, 500, 600) == []


def test_lookup_point(ctx_and_index):
    db, ctx, table, index = ctx_and_index
    tids = list(index.lookup(ctx, 0))
    rows = [table.heap.row(t) for t in tids]
    assert rows and all(r[1] == 0 for r in rows)


def test_tid_views_are_read_only(ctx_and_index):
    """Readers hand out views of the tree's own TID array, which consumers
    pass on as selection vectors: a write through one raises instead of
    corrupting the index — after a build and after an insert alike."""
    _db, ctx, table, index = ctx_and_index

    def assert_read_only():
        for view in (index.scan_tids(ctx, 10, 20),
                     next(index.scan_leaf_tids(ctx, 10, 20)),
                     index.peek_range_tids(10, 20),
                     index.peek_range_tids(15, 15, True, True)):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                view.sort()

    assert_read_only()
    assert table.insert_many([(2_000, 15)]) == 1
    assert_read_only()
    assert index.peek_range_tids(15, 15, True, True).tolist()[-1] == 2_000


def test_scan_charges_descent_and_leaf_io(ctx_and_index):
    db, ctx, _table, index = ctx_and_index
    db.cold_run()
    ctx = db.context()
    entries(index, ctx)
    # At least the root-to-leaf path plus every leaf page was read.
    assert db.disk.stats.pages_read >= index.num_leaves


def test_insert_preserves_order():
    index = make_index([])
    rng = random.Random(5)
    values = [rng.randrange(100) for _ in range(300)]
    for i, v in enumerate(values):
        index.insert(v, i)
    keys = [k for k, _t in entries(index)]
    assert keys == sorted(keys)
    assert len(index) == 300


def test_insert_equal_keys_ordered_by_tid():
    index = make_index([])
    index.insert(5, 30)
    index.insert(5, 10)
    index.insert(5, 20)
    assert entries(index) == [(5, 10), (5, 20), (5, 30)]


def test_geometry_consistency():
    index = make_index(range(20_000))
    sizes = index.level_sizes
    assert sizes[0] == index.num_leaves
    assert sizes[-1] == 1
    assert index.num_pages == sum(sizes)
    assert index.height == len(sizes)


def test_geometry_is_worked_out_per_build_and_dropped_by_insert():
    """A tree is asked for its shape on every descent: it answers from
    one ``(level sizes, height)`` per build, and an insert that may have
    grown a level makes it work the shape out again."""
    index = BTreeIndex("i", 0, key_size=8)
    fanout = index.fanout
    assert (index.num_leaves, index.height, index.level_sizes) == (1, 1, [1])
    index.load_column(list(range(fanout)))
    assert (index.num_leaves, index.height, index.level_sizes) == (1, 1, [1])
    assert index.level_sizes is index.level_sizes  # not recomputed
    assert index._path_page_ids(0) == [0]
    # One entry more than a leaf holds: a second leaf, and a root over both.
    index.insert(fanout, 99 * 50)
    assert (index.num_leaves, index.height) == (2, 2)
    assert index.level_sizes == [2, 1] and index.num_pages == 3
    assert index._path_page_ids(1) == [2, 1]
    assert index.num_leaves == layout.num_leaves(len(index), fanout)
    assert index.height == layout.height(index.num_leaves, fanout)
    # A rebuild starts over as well.
    index.load_column([1])
    assert (index.num_leaves, index.height, index.num_pages) == (1, 1, 1)


def test_page_bounds():
    index = make_index(range(10))
    pool = BufferPool(SimulatedDisk(SimClock()), 4)
    pool.get_page(index, index.num_pages - 1)
    with pytest.raises(UnknownPageError, match="outside file 9 of 1 pages"):
        pool.get_page(index, index.num_pages)
    assert len(pool) == pool.stats.misses == 1


def test_path_page_ids_root_first():
    index = make_index(range(20_000))
    path = index._path_page_ids(0)
    assert len(path) == index.height
    assert path[-1] == 0  # leaf 0 last
    assert path[0] == index.num_pages - 1  # root is the last page id


def test_root_key_separators_sorted_unique():
    index = make_index(i % 50 for i in range(500))
    seps = index.root_key_separators(8)
    assert seps == sorted(seps)
    assert len(seps) == len(set(seps))
    assert len(seps) <= 7


def test_root_key_separators_empty_cases():
    assert make_index([]).root_key_separators(8) == []
    index = make_index([1])
    assert index.root_key_separators(1) == []


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=100), max_size=200),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
)
def test_property_range_positions_match_filter(keys, lo, hi):
    index = make_index(keys)
    start, end = index.range_positions(lo, hi)
    via_positions = [k for k, _t in entries(index)[start:end]]
    expected = sorted(k for k in keys if lo <= k < hi)
    assert via_positions == expected


# -- the tree is two arrays: nothing it returns or charges may move -----------
#
# ``BTREE_GOLDEN`` was recorded at the commit before the index stopped
# storing ``TID`` objects (when a TID was a ``(page, slot)`` pair and the
# index was built by sorting the pairs read off the heap), with
# ``observe_reads`` below over ``golden_ranges`` of ``build_golden_table``,
# per key kind and read.  Its entries digest each TID as the packed
# ``page << 20 | slot`` code the index later stored, so ``frozen_code``
# writes a TID (a heap position) back in that form before digesting.  The
# read labels are the names the bulk reads had then.  It also held each
# read's charges as a digest of per-call float milliseconds, a form the
# event-counting clock cannot produce; those records were dropped rather
# than re-recorded, and each cold read's counts are checked against the
# Eq. (11) counts the tree's geometry implies (``eq11_counts``) instead.

#: Key column of a given kind for the duplicate-heavy key number ``k``.
KEY_KINDS = {
    "int": (Column("k"), lambda k: k),
    "float": (Column("k", ColumnType.FLOAT), lambda k: k * 0.5),
    "char": (Column("k", ColumnType.CHAR, 12), lambda k: f"key{k:03d}"),
}

READS = ("scan_batches", "scan_codes", "scan_leaf_codes")


def frozen_code(tid, per_page):
    """TID ``tid`` as the packed code ``BTREE_GOLDEN`` digests."""
    page, slot = divmod(tid, per_page)
    return page << 20 | slot


def read_entries(index, ctx, read, bounds, per_page):
    """One range read, flattened: ``(key, code)`` pairs or bare codes."""
    if read == "scan_batches":
        return [(k, frozen_code(t, per_page))
                for keys, tids in index.scan_batches(ctx, *bounds)
                for k, t in zip(keys, tids, strict=True)]
    if read == "scan_codes":
        tids = index.scan_tids(ctx, *bounds).tolist()
    else:
        tids = [t for leaf in index.scan_leaf_tids(ctx, *bounds)
                for t in leaf.tolist()]
    return [frozen_code(t, per_page) for t in tids]


def golden_ranges(key):
    """Whole index, the four inclusivity combinations, point, empties."""
    lo, hi = key(7), key(23)
    return [(None, None, True, False), (None, hi, True, True),
            (lo, None, False, False),
            *((lo, hi, li, ui) for li in (True, False)
              for ui in (True, False)),
            (lo, lo, True, True), (lo, lo, True, False), (hi, lo, True, True),
            (key(500), None, True, False), (None, key(-1), True, False)]


def build_golden_table(kind):
    """6,000 rows over 40 distinct keys: several leaves, height 2."""
    column, key = KEY_KINDS[kind]
    rng = random.Random(11)
    db = Database()
    table = db.load_table("t", Schema([Column("id"), column]),
                          [(i, key(rng.randrange(40))) for i in range(6_000)])
    return db, db.create_index("t", "k"), key, table.heap.tuples_per_page


def observe_reads(observe_charges, db, index, read, ranges, per_page):
    """What ``read`` returns and charges over ``ranges``, each run cold."""
    observe, digest = observe_charges
    got, charges = observe(db, lambda mark: [
        (read_entries(index, db.cold_run(), read, bounds, per_page), mark())[0]
        for bounds in ranges])
    return {"entries": digest(got), **charges}


BTREE_GOLDEN = {
    "char/scan_batches": {"entries": [12, "d196533faec5cc5d"]},
    "char/scan_codes": {"entries": [12, "de65bc8bd92331b3"]},
    "char/scan_leaf_codes": {"entries": [12, "de65bc8bd92331b3"]},
    "float/scan_batches": {"entries": [12, "cf23b1abb4bcb496"]},
    "float/scan_codes": {"entries": [12, "7073c01987329f29"]},
    "float/scan_leaf_codes": {"entries": [12, "7073c01987329f29"]},
    "int/scan_batches": {"entries": [12, "cdf314391c0e257e"]},
    "int/scan_codes": {"entries": [12, "621a00cecdebb8d0"]},
    "int/scan_leaf_codes": {"entries": [12, "621a00cecdebb8d0"]},
}


def eq11_counts(index, read, bounds):
    """What a cold read of ``bounds`` counts, by Eq. (11)'s index terms.

    ``height`` random page reads for the descent (an empty range pays it
    too), one sequential read per further leaf the range crosses into,
    and one index-entry CPU charge per entry returned; the per-leaf TID
    views leave the per-entry CPU to their consumer.
    """
    start, end = index.range_positions(*bounds)
    row = [0] * len(KINDS)
    row[RAND_PAGE] = index.height
    if start < end:
        row[SEQ_PAGE] = (end - 1) // index.fanout - start // index.fanout
        if read != "scan_leaf_codes":
            row[KINDS.index("index_entry")] = end - start
    return {1: row}


@pytest.mark.parametrize("kind", sorted(KEY_KINDS))
def test_column_built_index_reads_and_charges_as_the_pair_sorted_one(
        kind, observe_charges):
    _observe, digest = observe_charges
    db, index, key, per_page = build_golden_table(kind)
    runtime = db.runtime
    for read in READS:
        got = []
        for bounds in golden_ranges(key):
            ctx = db.cold_run()
            ledger = CostLedger()
            runtime.begin_attribution(ledger)
            try:
                got.append(read_entries(index, ctx, read, bounds, per_page))
            finally:
                runtime.end_attribution()
            assert ledger.counts == eq11_counts(index, read, bounds), \
                (read, bounds)
        assert {"entries": digest(got)} == BTREE_GOLDEN[f"{kind}/{read}"], \
            read


_BUILD_STEPS = st.lists(
    st.tuples(st.sampled_from(["column", "insert_many", "insert"]),
              st.lists(st.integers(0, 8), max_size=40)),
    min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(KEY_KINDS)), _BUILD_STEPS)
def test_property_every_build_route_leaves_sorted_pairs(
        observe_charges, kind, steps):
    """Column build, ``Table.insert_many`` in bulk and row by row, in any
    interleaving.

    128-byte index pages (8-26 entries a leaf) put leaf crossings and a
    second level inside a few dozen entries.
    """
    from repro.storage.heap import HeapFile
    from repro.storage.table import Table

    column, key = KEY_KINDS[kind]
    schema = Schema([Column("id"), column])
    heap = HeapFile(file_id=1, schema=schema, tuples_per_page=7)
    table = Table("t", schema, heap)

    def new_index():
        return BTreeIndex("idx", file_id=2, key_size=column.byte_size,
                          page_size=128)

    index = table.indexes["k"] = new_index()
    pairs = []
    for route, numbers in steps:
        rows = [(len(pairs) + i, key(k)) for i, k in enumerate(numbers)]
        if route == "column":
            pairs += [(row[1], heap.append(row)) for row in rows]
            index.load_column(heap.image().columns[1])
            continue
        if route == "insert":
            for row in rows:
                assert table.insert_many([row]) == 1
        else:
            assert table.insert_many(iter(rows)) == len(rows)
        pairs += [(row[1], tid) for tid, row in enumerate(rows, len(pairs))]
    assert len(index) == len(pairs)

    per_page = heap.tuples_per_page
    wanted = [(k, frozen_code(t, per_page)) for k, t in sorted(pairs)]
    lo, hi = key(2), key(5)
    ranges = [(None, None, True, False), (hi, lo, True, True),
              (key(9), None, True, False),
              *((lo, hi, li, ui) for li in (True, False)
                for ui in (True, False))]
    reference = new_index()
    reference.load_column(heap.image().columns[1])
    db = Database()
    for bounds in ranges:
        lo_, hi_, li, ui = bounds
        cut = [(k, c) for k, c in wanted
               if (lo_ is None or k > lo_ or (li and k == lo_))
               and (hi_ is None or k < hi_ or (ui and k == hi_))]
        for read in READS:
            got = read_entries(index, db.cold_run(), read, bounds, per_page)
            assert got == (cut if read == "scan_batches"
                           else [c for _, c in cut]), (read, bounds)
    for read in READS:
        assert (observe_reads(observe_charges, db, index, read, ranges,
                              per_page)
                == observe_reads(observe_charges, db, reference, read,
                                 ranges, per_page))


# -- no object per entry: the collector has nothing to walk -------------------


def _tracked_objects_after_queries(num_tuples):
    """Build, analyze, run one query per access path; what the collector
    still tracks afterwards, how many more objects that is than before
    the build, and the table's page count."""
    from repro.core.smooth_scan import SmoothScan
    from repro.core.switch_scan import SwitchScan
    from repro.core.trigger import OptimizerDrivenTrigger
    from repro.exec.expressions import Between, KeyRange
    from repro.exec.scans import FullTableScan, IndexScan, SortScan
    from repro.exec.stats import measure
    from repro.workloads.micro import VALUE_DOMAIN, build_micro_table

    gc.collect()
    before = len(gc.get_objects())
    db = Database()
    table = build_micro_table(db, num_tuples=num_tuples, seed=7)
    db.analyze()
    tenth = KeyRange(0, VALUE_DOMAIN // 10)
    for plan in (
        FullTableScan(table, Between("c2", 0, VALUE_DOMAIN // 10)),
        IndexScan(table, "c2", tenth),
        SortScan(table, "c2", tenth),
        SmoothScan(table, "c2", tenth),
        # Mode 0, the Tuple ID cache and the Result Cache: every
        # per-entry consumer of TIDs.
        SmoothScan(table, "c2", tenth, ordered=True,
                   trigger=OptimizerDrivenTrigger(25)),
        SwitchScan(table, "c2", tenth, threshold=50),
    ):
        assert measure(db, plan, keep_rows=False).row_count > 0
    # ... and ``insert`` keeps its TID in the tree's array.
    db.append_rows(table.name, [tuple(range(len(table.schema.column_names)))])
    del plan
    gc.collect()
    after = gc.get_objects()
    return db, table.num_pages, after, len(after) - before


def test_no_tid_outlives_a_query_and_tracked_objects_follow_pages():
    """A population of GC-tracked objects proportional to the *row* count
    is re-walked by every collection a big result set triggers: a TID is
    an ``int`` (a number the collector does not track), and the heap
    keeps nothing per *page* either (a page is a number)."""
    _tracked_objects_after_queries(1_000)  # lazy imports and caches
    small_db, small_pages, _small, small_count = \
        _tracked_objects_after_queries(5_000)
    del small_db, _small
    big_db, big_pages, _big, big_count = \
        _tracked_objects_after_queries(20_000)
    assert big_pages - small_pages == 125
    # A constant, so that one object per page (125 here) cannot hide in it.
    assert big_count - small_count < 16

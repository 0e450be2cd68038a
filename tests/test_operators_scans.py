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
# the clock's counts of each kind per batch.

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
        "cpu": [9, "73b80867dc54806f"],
        "io": [9, "97b5388812b728e7"],
        "rows": [9438, "4ff113e1ecca1c47"],
    },
    "sort/bands-residual": {
        "batches": [2436, 70, 1114, 154],
        "cpu": [5, "53cb396da1d3641a"],
        "io": [5, "2216079420ab4297"],
        "rows": [3774, "daa3be69c84d092d"],
    },
    "sort/bands-residual-none-pass": {
        "batches": [],
        "cpu": [1, "a5000f7a0da92902"],
        "io": [1, "81eb6a05f9d549b5"],
        "rows": [0, "4f53cda18c2baa0c"],
    },
    "sort/cold-only": {
        "batches": [375, 752, 981, 601],
        "cpu": [5, "6d79a83ca6d5a6b4"],
        "io": [5, "4b6bc9f9ce692d0e"],
        "rows": [2709, "e835b4d32a704cde"],
    },
    "sort/shard": {
        "batches": [2030, 58, 928, 128],
        "cpu": [5, "6091fc499a594447"],
        "io": [5, "7f6413dda7ea150f"],
        "rows": [3144, "41faed01c932cc9f"],
    },
    "sort/shard-residual": {
        "batches": [812, 24, 371, 51],
        "cpu": [5, "818c5deade0b4d47"],
        "io": [5, "7f6413dda7ea150f"],
        "rows": [1258, "fb65f9c64f3a9b18"],
    },
    "sort/whole-heap": {
        "batches": [15697],
        "cpu": [2, "f166411cf6ffaa9d"],
        "io": [2, "bd3cccccfd5340fd"],
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


def test_scans_leave_one_image_and_no_per_extent_state(db):
    """Every columnar batch is a selection over the heap's one image —
    no column is copied into it — and draining the scans again retains
    nothing: no per-page, per-extent or per-region chunk is kept."""
    import gc
    import tracemalloc

    from repro.core.smooth_scan import SmoothScan
    from repro.storage.chunk import Chunk

    table = build_banded_table(db)
    heap = table.heap
    image = heap.image()
    plans = [FullTableScan(table, Between("c2", 0, 10)),
             IndexScan(table, "c2", KeyRange(0, 10)),
             SortScan(table, "c2", KeyRange(0, 10)), SortScan(table, "c2"),
             SmoothScan(table, "c2", KeyRange(0, 10)),
             SmoothScan(table, "c2", residual=Between("c3", 1, 3))]

    def drain():
        chunks = 0
        for plan in plans:
            for batch in plan.batches(db.cold_run()):
                if isinstance(batch, Chunk):
                    chunks += 1
                    assert all(mine is its for mine, its in zip(
                        batch.columns, image.columns, strict=True))
        return chunks

    assert drain() > len(plans)
    assert heap.image() is image
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        drain()
        drain()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # Less than one int64 column of the table, let alone a copy of it.
    assert retained < 8 * heap.row_count
    assert heap.image() is image


def test_sort_scan_banded_runs_are_the_intended_shapes(db, observe_plan):
    # Guard the fixture itself: the dense runs really are mid-extent.
    plan = _banded(db, key_range=KeyRange(0, 10))
    per_page = plan.table.heap.tuples_per_page
    lengths = observe_plan(db, plan)[1]["batches"]
    assert 35 * per_page in lengths          # pages 5-39
    assert 16 * per_page in lengths          # pages 64-79
    assert 2 * per_page + 37 in lengths      # pages 88-90, short tail
    assert lengths.count(1) >= 3             # stray single-row runs


# -- IndexScan walks packed codes in blocks: nothing it charges may move ------
#
# ``INDEX_GOLDEN`` was recorded at the commit before the block walk (when
# IndexScan pulled ``index.scan`` entry by entry, fetched ``page.get`` per
# TID and cut the survivors with ``chunked``), with conftest's
# ``observe_plan`` as above plus ``repr`` of the shared clock's totals after
# the run, which pins the milliseconds derived from the counts, overlap
# divisors included.

def _index_exchange(db, **kwargs):
    from repro.exec.exchange import Exchange, ShardedScan

    build_banded_table(db)
    db.shard_table("banded", 3, "round_robin")
    return Exchange([
        ShardedScan(IndexScan(db.table(f"banded#{i}"), "c2", **kwargs),
                    f"banded#{i}", i)
        for i in range(3)
    ], table_name="banded")


def _index_limit(db, n, **kwargs):
    from repro.exec.misc import Limit
    return Limit(IndexScan(build_banded_table(db), "c2", **kwargs), n)


def _tag_is(value):
    from repro.exec.expressions import CompareOp, Comparison
    return Comparison("tag", CompareOp.EQ, value)


#: case -> (buffer pool pages or None for the default, warm pool?, plan).
INDEX_CASES = {
    "index/bands-cold": (None, False, lambda db: IndexScan(
        build_banded_table(db), "c2", KeyRange(0, 10))),
    "index/bands-warm": (None, True, lambda db: IndexScan(
        build_banded_table(db), "c2", KeyRange(0, 10))),
    "index/bands-tiny-pool": (8, False, lambda db: IndexScan(
        build_banded_table(db), "c2", KeyRange(0, 10))),
    "index/bands-tiny-pool-warm": (8, True, lambda db: IndexScan(
        build_banded_table(db), "c2", KeyRange(0, 10))),
    "index/residual": (None, False, lambda db: IndexScan(
        build_banded_table(db), "c2", KeyRange(0, 10),
        residual=Between("c3", 1, 3))),
    "index/residual-none-pass": (None, False, lambda db: IndexScan(
        build_banded_table(db), "c2", KeyRange(0, 10),
        residual=Between("c3", 7, 9))),
    "index/residual-char": (8, False, lambda db: IndexScan(
        build_banded_table(db), "c2", KeyRange(0, 10),
        residual=_tag_is("t1"))),
    "index/whole-heap": (None, False, lambda db: IndexScan(
        build_banded_table(db), "c2")),
    "index/cold-only-tiny-pool": (8, False, lambda db: IndexScan(
        build_banded_table(db), "c2", KeyRange(100, 4000))),
    "index/empty-range": (None, False, lambda db: IndexScan(
        build_banded_table(db), "c2", KeyRange(50, 60))),
    "index/limit-first-flush": (None, False, lambda db: _index_limit(
        db, 5, key_range=KeyRange(0, 10))),
    "index/limit-mid-block": (8, False, lambda db: _index_limit(
        db, 1_500, key_range=KeyRange(0, 10),
        residual=Between("c3", 1, 3))),
    "index/exchange": (None, False, lambda db: _index_exchange(
        db, key_range=KeyRange(0, 10))),
    "index/exchange-residual-tiny-pool": (8, False, lambda db:
                                          _index_exchange(
        db, key_range=KeyRange(0, 10), residual=Between("c3", 1, 3))),
}


def _observe_index_case(case, observe_plan):
    from repro.config import EngineConfig
    from repro.database import Database

    pool, warm, build = INDEX_CASES[case]
    db = Database(config=EngineConfig(buffer_pool_pages=pool)
                  if pool else None)
    plan = build(db)
    if warm:
        measure(db, plan)
    rows, observed = observe_plan(db, plan, cold=not warm)
    clock = db.runtime.clock
    observed["clock"] = [repr(clock.io_ms), repr(clock.cpu_ms)]
    return db, plan, rows, observed


INDEX_GOLDEN = {
    "index/bands-cold": {
        "batches": [1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 222],
        "clock": ["7.4415", "3.7722000000000007"],
        "cpu": [11, "c1876b3b8cc36b7a"],
        "io": [11, "a97ce586afa5182e"],
        "rows": [9438, "ad6217555664f553"],
    },
    "index/bands-tiny-pool": {
        "batches": [1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 222],
        "clock": ["43.9725", "3.7474500000000006"],
        "cpu": [11, "29ea0f009eee2e9e"],
        "io": [11, "218dfb0fec529e8d"],
        "rows": [9438, "ad6217555664f553"],
    },
    "index/bands-tiny-pool-warm": {
        "batches": [1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 222],
        "clock": ["87.945", "7.494900000000001"],
        "cpu": [11, "29ea0f009eee2e9e"],
        "io": [11, "218dfb0fec529e8d"],
        "rows": [9438, "ad6217555664f553"],
    },
    "index/bands-warm": {
        "batches": [1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 222],
        "clock": ["10.3935", "7.547150000000001"],
        "cpu": [11, "e894898652a74b88"],
        "io": [11, "db2cfbb9b795fc12"],
        "rows": [9438, "ad6217555664f553"],
    },
    "index/cold-only-tiny-pool": {
        "batches": [1024, 1024, 661],
        "clock": ["1270.5285", "0.94815"],
        "cpu": [4, "8facae13c4929089"],
        "io": [4, "15b214774048ea1d"],
        "rows": [2709, "560253bfe5f074a8"],
    },
    "index/empty-range": {
        "batches": [],
        "clock": ["1.23", "0.0"],
        "cpu": [1, "b18a48f02566e615"],
        "io": [1, "a75689814e8c9fc9"],
        "rows": [0, "4f53cda18c2baa0c"],
    },
    "index/exchange": {
        "batches": [1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 78, 72, 72],
        "clock": ["8.241", "1.7269"],
        "cpu": [13, "a203b18daa5bf777"],
        "io": [13, "df6743066bd1389a"],
        "rows": [9438, "cf903babf16b30f6"],
    },
    "index/exchange-residual-tiny-pool": {
        "batches": [1024, 1024, 1024, 235, 234, 233],
        "clock": ["21.627499999999998", "1.2471666666666668"],
        "cpu": [7, "ef1ba79464bd3fe4"],
        "io": [7, "f8fd8f25e90d6f2b"],
        "rows": [3774, "09dad304d318843e"],
    },
    "index/limit-first-flush": {
        "batches": [5],
        "clock": ["5.1659999999999995", "0.40685000000000004"],
        "cpu": [2, "eda1472e921feb48"],
        "io": [2, "500500ca18198bd2"],
        "rows": [5, "a089333192c7c82a"],
    },
    "index/limit-mid-block": {
        "batches": [1024, 476],
        "clock": ["28.166999999999998", "1.9353500000000001"],
        "cpu": [3, "8b052e6b497894b5"],
        "io": [3, "26b12a5103e544b2"],
        "rows": [1500, "65952f8fc552677e"],
    },
    "index/residual": {
        "batches": [1024, 1024, 1024, 702],
        "clock": ["7.4415", "3.2058000000000004"],
        "cpu": [5, "4b6529728a158e4b"],
        "io": [5, "965a4a61f1934bef"],
        "rows": [3774, "2052fba17a545f7d"],
    },
    "index/residual-char": {
        "batches": [1024, 1024, 1024, 72],
        "clock": ["43.9725", "3.11805"],
        "cpu": [5, "f0b0de04771e621f"],
        "io": [5, "3410e313a62325e2"],
        "rows": [3144, "049e18a2965b2a37"],
    },
    "index/residual-none-pass": {
        "batches": [],
        "clock": ["7.4415", "2.8284000000000002"],
        "cpu": [1, "291a16d68bfd845e"],
        "io": [1, "b1b08cc4d1a89dbd"],
        "rows": [0, "4f53cda18c2baa0c"],
    },
    "index/whole-heap": {
        "batches": [1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024,
                    1024, 1024, 1024, 1024, 337],
        "clock": ["20.9715", "6.274000000000001"],
        "cpu": [17, "e8c9b975c078b4c6"],
        "io": [17, "5d1237158580478c"],
        "rows": [15697, "83d1527bab452084"],
    },
}


@pytest.mark.parametrize("case", sorted(INDEX_CASES))
def test_index_scan_block_walk_keeps_rows_batches_and_charges(
        case, observe_plan):
    db, plan, rows, observed = _observe_index_case(case, observe_plan)
    assert observed == INDEX_GOLDEN[case]
    # ... and the rows are right, not merely unchanged.
    scans = [plan]
    while not isinstance(scans[0], IndexScan):
        scans = [c for op in scans for c in op.children()]
    lo, hi = scans[0].key_range.lo, scans[0].key_range.hi
    matches = scans[0].residual.bind(scans[0].schema)
    wanted = [r for r in measure(db, FullTableScan(db.table("banded"))).rows
              if (lo is None or r[1] >= lo) and (hi is None or r[1] < hi)
              and matches(r)]
    if len(scans) == 1:
        # Key order, physical order within a key: a prefix under Limit.
        wanted.sort(key=lambda r: (r[1], r[0]))
        assert rows == wanted[:len(rows)]
        assert len(rows) == min(len(wanted), getattr(plan, "n", len(wanted)))
    else:
        assert sorted(rows) == wanted

"""SmoothScan: correctness under every configuration, plus its internals.

The correctness contract of the whole paper: Smooth Scan must return
exactly the tuples the query qualifies — no duplicates, no losses — under
any policy, trigger, mode cap or ordering requirement, at any selectivity.
"""

import pytest

from repro.core.policy import (
    ElasticPolicy,
    GreedyPolicy,
    SelectivityIncreasePolicy,
)
from repro.core.smooth_scan import SmoothScan
from repro.core.trigger import (
    OptimizerDrivenTrigger,
    SLADrivenTrigger,
)
from repro.errors import PlanningError
from repro.exec.expressions import And, Between, KeyRange
from repro.exec.misc import Limit
from repro.exec.scans import FullTableScan
from repro.exec.stats import measure

from kleene import truth, where

ALL_POLICIES = [GreedyPolicy(), SelectivityIncreasePolicy(), ElasticPolicy()]


def reference_rows(db, table, lo, hi):
    return sorted(measure(db, FullTableScan(table, Between("c2", lo, hi))).rows)


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("hi", [0, 5, 100, 500, 1000])
def test_results_match_full_scan(small_table, policy, hi):
    db, table = small_table
    expected = reference_rows(db, table, 0, hi)
    scan = SmoothScan(table, "c2", KeyRange(0, hi), policy=policy)
    assert sorted(measure(db, scan).rows) == expected


@pytest.mark.parametrize("hi", [5, 300, 1000])
def test_ordered_results_match_and_are_sorted(small_table, hi):
    db, table = small_table
    expected = reference_rows(db, table, 0, hi)
    scan = SmoothScan(table, "c2", KeyRange(0, hi), ordered=True)
    rows = measure(db, scan).rows
    assert sorted(rows) == expected
    keys = [r[1] for r in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("trigger_factory", [
    lambda: OptimizerDrivenTrigger(10),
    lambda: OptimizerDrivenTrigger(0),
    lambda: SLADrivenTrigger(25),
], ids=["optimizer10", "optimizer0", "sla25"])
@pytest.mark.parametrize("ordered", [False, True])
def test_non_eager_triggers_no_duplicates(small_table, trigger_factory,
                                          ordered):
    db, table = small_table
    expected = reference_rows(db, table, 0, 400)
    scan = SmoothScan(table, "c2", KeyRange(0, 400),
                      trigger=trigger_factory(), ordered=ordered)
    rows = measure(db, scan).rows
    assert len(rows) == len(expected)
    assert sorted(rows) == expected


def test_mode1_cap_matches_results(small_table):
    db, table = small_table
    expected = reference_rows(db, table, 0, 800)
    scan = SmoothScan(table, "c2", KeyRange(0, 800), max_mode=1)
    assert sorted(measure(db, scan).rows) == expected
    assert scan.last_stats.max_region_used == 1


def test_invalid_max_mode(small_table):
    _db, table = small_table
    with pytest.raises(PlanningError):
        SmoothScan(table, "c2", max_mode=3)


def test_residual_predicate(small_table):
    db, table = small_table
    residual = Between("c3", 0, 3)
    scan = SmoothScan(table, "c2", KeyRange(0, 600), residual=residual)
    rows = measure(db, scan).rows
    assert rows and all(0 <= r[2] < 3 and 0 <= r[1] < 600 for r in rows)
    full = measure(
        db, FullTableScan(table, And([Between("c2", 0, 600), residual]))
    ).rows
    assert sorted(rows) == sorted(full)


def test_no_heap_page_fetched_twice(small_table):
    """The Page ID cache invariant: at most #P heap page fetches."""
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 1000))
    result = measure(db, scan)
    index_pages = table.index_on("c2").num_pages
    assert result.disk.pages_read <= table.num_pages + index_pages
    assert scan.last_stats.pages_fetched <= table.num_pages


def test_worst_case_bounded_by_page_count(small_table):
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 1000))
    measure(db, scan)
    stats = scan.last_stats
    assert stats.pages_fetched == table.num_pages  # 100% selectivity
    assert stats.pages_with_results == table.num_pages


def test_region_growth_on_dense_data(small_table):
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 1000))
    measure(db, scan)
    assert scan.last_stats.max_region_used > 1
    assert scan.last_stats.region_trace  # trace recorded


def test_region_capped_by_config(small_table):
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 1000), max_region_pages=4)
    measure(db, scan)
    assert scan.last_stats.max_region_used <= 4


def test_eager_needs_no_tuple_cache(small_table):
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 100))
    measure(db, scan)
    assert scan.last_stats.tuple_cache_bytes == 0
    assert scan.last_stats.morphed_at is None


def test_optimizer_trigger_records_morph_point(small_table):
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 500),
                      trigger=OptimizerDrivenTrigger(20))
    measure(db, scan)
    stats = scan.last_stats
    assert stats.morphed_at == 21
    assert stats.mode0_tuples == 21
    assert stats.tuple_cache_bytes > 0


def test_trigger_never_fires_below_estimate(small_table):
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 2),
                      trigger=OptimizerDrivenTrigger(10_000))
    rows = measure(db, scan).rows
    assert scan.last_stats.morphed_at is None
    assert sorted(rows) == reference_rows(db, table, 0, 2)


def test_ordered_scan_uses_result_cache(small_table):
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 500), ordered=True)
    measure(db, scan)
    cache = scan.last_stats.result_cache
    assert cache is not None
    assert cache.inserts > 0
    assert cache.hits > 0


def test_unordered_scan_has_no_result_cache(small_table):
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 500))
    measure(db, scan)
    assert scan.last_stats.result_cache is None


def test_result_cache_spill_path(small_table):
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 1000), ordered=True,
                      result_cache_memory_limit=2_000)
    rows = measure(db, scan).rows
    assert sorted(rows) == reference_rows(db, table, 0, 1000)
    assert scan.last_stats.result_cache.spills > 0
    keys = [r[1] for r in rows]
    assert keys == sorted(keys)  # order preserved despite spilling


def test_morphing_accuracy_reaches_one_on_dense(small_table):
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 1000))
    measure(db, scan)
    assert scan.last_stats.morphing_accuracy == pytest.approx(1.0)


def test_stats_summary_keys(small_table):
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 50))
    measure(db, scan)
    summary = scan.last_stats.summary()
    for key in ("probes", "produced", "pages_fetched",
                "morphing_accuracy", "max_region_used"):
        assert key in summary


def test_faster_than_index_scan_at_high_selectivity(small_table):
    from repro.exec.scans import IndexScan
    db, table = small_table
    smooth = measure(db, SmoothScan(table, "c2", KeyRange(0, 1000)))
    index = measure(db, IndexScan(table, "c2", KeyRange(0, 1000)))
    assert smooth.total_ms < index.total_ms


def test_close_to_full_scan_at_full_selectivity(micro_setup):
    db, table = micro_setup
    smooth = measure(db, SmoothScan(table, "c2", KeyRange(0, 100_000)))
    full = measure(db, FullTableScan(table, Between("c2", 0, 100_000)))
    assert smooth.total_ms < full.total_ms * 2.0  # paper: within ~20%


def test_empty_table(db):
    from repro.storage.types import Schema
    table = db.load_table("e", Schema.of_ints(["a", "b"]), [])
    db.create_index("e", "b")
    scan = SmoothScan(table, "b", KeyRange(0, 10))
    assert measure(db, scan).rows == []


def test_all_duplicate_keys(db):
    from repro.storage.types import Schema
    table = db.load_table("dup", Schema.of_ints(["a", "b"]),
                          [(i, 7) for i in range(2_000)])
    db.create_index("dup", "b")
    for ordered in (False, True):
        scan = SmoothScan(table, "b", KeyRange.equal(7), ordered=ordered)
        rows = measure(db, scan).rows
        assert len(rows) == 2_000
        assert len(set(rows)) == 2_000


# -- the O(1) flush check: flush boundaries and charges must not move ---------
#
# Recorded at the commit before the pending-row counter (when the columnar
# branch re-summed ``len()`` of every pending part after every region) with
# conftest's ``observe_plan``; eager trigger, unordered — the columnar
# config the counter lives in.  120K micro rows: 0.1% leaves everything to
# the final flush, 1% crosses the 1,024-row threshold once, 5% and 20%
# repeatedly, and the residual halves what each region contributes.  The
# last three cases were recorded at the commit before a run became a cut
# into the scan's qualifying positions (when every run masked its slice of
# the heap image): a residual over the long flattened regions of 20%, the
# Entire Page Probe cap (every region one page), and a ``Limit`` that
# abandons the scan between two entries of a leaf.

def _flush_plan(table, selectivity, residual=None, **kwargs):
    from repro.workloads.micro import selectivity_range
    return SmoothScan(table, "c2", selectivity_range(selectivity),
                      residual=residual, **kwargs)


FLUSH_CASES = {
    "smooth/0.1pct": lambda t: _flush_plan(t, 0.001),
    "smooth/1pct": lambda t: _flush_plan(t, 0.01),
    "smooth/5pct": lambda t: _flush_plan(t, 0.05),
    "smooth/20pct": lambda t: _flush_plan(t, 0.20),
    "smooth/5pct-residual": lambda t: _flush_plan(
        t, 0.05, Between("c3", 0, 50_000)),
    "smooth/20pct-residual": lambda t: _flush_plan(
        t, 0.20, Between("c3", 20_000, 90_000)),
    "smooth/5pct-mode1": lambda t: _flush_plan(t, 0.05, max_mode=1),
    "smooth/20pct-limit": lambda t: Limit(_flush_plan(t, 0.20), 3_000),
}

FLUSH_GOLDEN = {
    "smooth/0.1pct": {
        "batches": [91],
        "cpu": [2, "b104463371b23a5d"],
        "io": [2, "195c61cdf1c8f913"],
        "rows": [91, "a8be9d7a8a8bce5b"],
    },
    "smooth/1pct": {
        "batches": [1036, 121],
        "cpu": [3, "2c741ef71eaab50c"],
        "io": [3, "c8edf4340407aac0"],
        "rows": [1157, "0827603142e156dd"],
    },
    "smooth/20pct": {
        "batches": [1384, 1526, 1118, 4169, 1563, 1550, 9722, 1834, 779],
        "cpu": [10, "03a19399187e8046"],
        "io": [10, "ef2f8295b8ccfe28"],
        "rows": [23645, "270c6658d5e6b3fd"],
    },
    "smooth/20pct-limit": {
        "batches": [1384, 1526, 90],
        "cpu": [4, "388ab568c5d6226e"],
        "io": [4, "0558df5c8b1823b5"],
        "rows": [3000, "957ae5beeb6413d7"],
    },
    "smooth/20pct-residual": {
        "batches": [2047, 3669, 1068, 1065, 6831, 1255, 557],
        "cpu": [8, "b5343b90c59bd792"],
        "io": [8, "9931e17a41d75a16"],
        "rows": [16492, "dfb37198a5c1d818"],
    },
    "smooth/5pct": {
        "batches": [2067, 3251, 632],
        "cpu": [4, "742f1f20b1c88e3c"],
        "io": [4, "63311fe9d42bc27a"],
        "rows": [5950, "6664980fec8ccd6b"],
    },
    "smooth/5pct-mode1": {
        "batches": [1024, 1028, 1026, 1027, 1024, 821],
        "cpu": [7, "7c1fb466ef0124b6"],
        "io": [7, "687d5cfd4d32521e"],
        "rows": [5950, "9f8a130b6b5f663b"],
    },
    "smooth/5pct-residual": {
        "batches": [1111, 1057, 750],
        "cpu": [4, "babee15213d80363"],
        "io": [4, "9aa568ac4139a8c5"],
        "rows": [2918, "6bfd04ddeea3c6a0"],
    },
}


@pytest.fixture(scope="module")
def flush_setup():
    from repro.database import Database
    from repro.workloads.micro import build_micro_table

    db = Database()
    return db, build_micro_table(db, num_tuples=120_000, seed=7)


@pytest.mark.parametrize("case", sorted(FLUSH_CASES))
def test_smooth_flush_boundaries_and_charges_unchanged(
        flush_setup, observe_plan, case):
    db, table = flush_setup
    plan = FLUSH_CASES[case](table)
    rows, observed = observe_plan(db, plan)
    assert observed == FLUSH_GOLDEN[case]
    scan = plan.child if isinstance(plan, Limit) else plan
    wanted = FullTableScan(table, Between("c2", scan.key_range.lo,
                                          scan.key_range.hi))
    qualifying = sorted(where(scan.residual, scan.schema,
                              measure(db, wanted).rows))
    if scan is plan:
        assert sorted(rows) == qualifying
    else:  # a prefix of the scan's output: distinct qualifying rows
        assert len(set(rows)) == len(rows) == plan.n
        assert set(rows) <= set(qualifying)


def test_smooth_flushes_only_at_the_batch_size_threshold(
        flush_setup, observe_plan):
    from repro.exec.iterator import DEFAULT_BATCH_SIZE

    db, table = flush_setup
    _, observed = observe_plan(db, _flush_plan(table, 0.20))
    lengths = observed["batches"]
    assert len(lengths) > 3
    # Every flush but the final one was due; none was overdue by more
    # than one morphing region's worth of rows.
    assert all(n >= DEFAULT_BATCH_SIZE for n in lengths[:-1])
    assert sum(lengths) == observed["rows"][0]


# -- a run is a cut into the scan's qualifying positions ------------------------


class MaskEachRun:
    """What Smooth Scan did before it found its rows once: every run masks
    its own slice of the heap image — the reference ``QualifyingPositions``
    is held to, through the same ``cut``."""

    def __init__(self, heap, index, rng, in_range, residual):
        self.image = heap.image()
        self.rows = len(self.image)
        self.per_page = heap.tuples_per_page
        self.in_range, self.residual = in_range, residual

    def cut(self, lo, hi):
        import numpy as np
        from repro.storage.chunk import mask_and

        run = self.image[lo:hi]
        mask = mask_and(self.in_range(run), None if self.residual is None
                        else self.residual(run))
        hits = np.arange(hi - lo) if mask is None \
            else np.flatnonzero(np.asarray(mask, dtype=bool))
        pages = len(set((hits // self.per_page).tolist()))
        return (range(lo, hi) if len(hits) == hi - lo else hits + lo), pages


def _small_scan_cases():
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        strings = draw(st.booleans())
        domain = (["ant", "bee", "cat", "dog", "eel", "fox", "gnu"]
                  if strings else list(range(12)))
        key = st.sampled_from(domain)
        # Duplicated keys; a NULL-bearing residual column (an object
        # column in the image); any row count, so a partial last page.
        rows = draw(st.lists(
            st.tuples(key, st.none() | st.integers(0, 9)),
            min_size=1, max_size=260))
        # Bounds in order four times out of five (equal ones, and those
        # the wrong way round, give the empty ranges); either may be open.
        lo, hi = draw(key), draw(key)
        if lo > hi and draw(st.integers(0, 4)):
            lo, hi = hi, lo
        key_range = KeyRange(draw(st.none() | st.just(lo)),
                             draw(st.none() | st.just(hi)),
                             draw(st.booleans()), draw(st.booleans()))
        residual = draw(st.none() | st.builds(
            lambda lo, span: Between("r", lo, lo + span),
            st.integers(0, 9), st.integers(0, 9)))
        return dict(
            strings=strings, rows=rows, key_range=key_range,
            residual=residual,
            policy=draw(st.sampled_from(ALL_POLICIES)),
            max_mode=draw(st.sampled_from([1, 2])),
            ordered=draw(st.booleans()),
            trigger=draw(st.none() | st.integers(0, 40)),
            # When the positions pass is taken: (almost) never, at the
            # first region, or after a few.
            rent_rows=draw(st.sampled_from([1, 64, 2048])),
            sort_rows=draw(st.sampled_from([0, 4, 10**6])),
        )

    return cases()


def _run_to_the_end(db, plan):
    from repro.exec.stats import StreamingRun

    run = StreamingRun(db, plan, cold=True)
    batches = []
    while (batch := run.next_batch()) is not None:
        batches.append(list(batch))
    return batches, plan.last_stats, run.ledger


def test_property_a_cut_is_what_masking_the_run_gives():
    """Rows, batch lengths, ``SmoothScanStats`` and the ledger of a scan
    that cuts its runs out of one array of qualifying positions — however
    and whenever that array is produced — are those of a scan that masks
    each run's slice of the image."""
    from hypothesis import HealthCheck, given, settings

    import repro.core.qualifying as qualifying
    import repro.core.smooth_scan as smooth_scan
    from repro.config import EngineConfig
    from repro.database import Database
    from repro.storage.types import Column, ColumnType, Schema

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(case=_small_scan_cases())
    def check(case):
        # 768-byte pages hold 7 of these rows: a few dozen pages.
        db = Database(config=EngineConfig(page_size=768))
        key_type = (Column("k", ColumnType.CHAR, 4) if case["strings"]
                    else Column("k"))
        table = db.load_table(
            "t", Schema([Column("id"), key_type, Column("r")]),
            [(i, k, r) for i, (k, r) in enumerate(case["rows"])])
        db.create_index("t", "k")

        def plan():
            trigger = case["trigger"]
            return SmoothScan(
                table, "k", case["key_range"], residual=case["residual"],
                policy=case["policy"], max_mode=case["max_mode"],
                ordered=case["ordered"],
                trigger=None if trigger is None
                else OptimizerDrivenTrigger(trigger))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qualifying, "_RENT_ROWS", case["rent_rows"])
            patch.setattr(qualifying, "_SORT_ROWS", case["sort_rows"])
            got = _run_to_the_end(db, plan())
            patch.setattr(smooth_scan, "QualifyingPositions", MaskEachRun)
            wanted = _run_to_the_end(db, plan())
        assert got == wanted
        # ... and the reference is right: the rows a row-at-a-time filter keeps.
        in_range = case["key_range"].contains
        passes = (lambda row: True) if case["residual"] is None \
            else (lambda row: truth(case["residual"], table.schema, row) is True)
        assert sorted(row for batch in got[0] for row in batch) == sorted(
            row for row in ((i, k, r) for i, (k, r) in
                            enumerate(case["rows"]))
            if in_range(row[1]) and passes(row))

    check()


def _count_masks_and_peeks(monkeypatch):
    """Record the length of every chunk the compiled range mask is asked
    about, and every uncharged peek at a range's index TIDs."""
    import repro.core.smooth_scan as smooth_scan
    from repro.index.btree import BTreeIndex

    masked, peeked = [], []
    peek = BTreeIndex.peek_range_tids

    class CountingPositions(smooth_scan.QualifyingPositions):
        def __init__(self, heap, index, rng, in_range, residual):
            super().__init__(heap, index, rng, lambda chunk: (
                masked.append(len(chunk)), in_range(chunk))[1], residual)

    def counting_peek(self, *args):
        tids = peek(self, *args)
        peeked.append(len(tids))
        return tids

    monkeypatch.setattr(smooth_scan, "QualifyingPositions", CountingPositions)
    monkeypatch.setattr(BTreeIndex, "peek_range_tids", counting_peek)
    return masked, peeked


def test_short_scans_never_pay_for_the_positions_pass(
        flush_setup, monkeypatch):
    """A scan that ends after a few regions masks what it fetched and no
    more; a narrow one sorts its own few index TIDs at its first region."""
    from repro.workloads.micro import selectivity_range

    db, table = flush_setup
    per_page = table.heap.tuples_per_page
    masked, peeked = _count_masks_and_peeks(monkeypatch)

    scan = _flush_plan(table, 1.0)
    assert len(measure(db, Limit(scan, 20)).rows) == 20
    stats = scan.last_stats
    assert peeked == [] and len(masked) >= 1
    assert sum(masked) == stats.pages_fetched * per_page < table.row_count
    assert max(masked) <= stats.max_region_used * per_page

    del masked[:]
    entries = table.index_on("c2").range_positions
    lo = selectivity_range(0.5).hi
    hi = next(hi for hi in range(lo + 1, lo + 10_000)
              if entries(lo, hi)[1] - entries(lo, hi)[0] >= 16)
    scan = SmoothScan(table, "c2", KeyRange(lo, hi))
    assert len(measure(db, scan).rows) == peeked[0] >= 16
    assert masked == [] and len(peeked) == 1


def test_long_scans_take_the_positions_pass_once(flush_setup, monkeypatch):
    """The 1% sweep point buys its positions out of the index after a few
    rented regions; a wide range crossed a page at a time buys them with
    one table-wide mask once the regions masked one by one have cost as
    much — and neither masks anything afterwards."""
    from repro.core.qualifying import _RENT_ROWS, _SORT_ROWS

    db, table = flush_setup
    masked, peeked = _count_masks_and_peeks(monkeypatch)

    scan = _flush_plan(table, 0.01)
    produced = len(measure(db, scan).rows)
    assert peeked == [produced]
    assert len(masked) == -(-produced * _SORT_ROWS // _RENT_ROWS) - 1
    assert len(scan.last_stats.region_trace) > 10 * len(masked)

    del masked[:], peeked[:]
    scan = _flush_plan(table, 0.5, max_mode=1)
    measure(db, scan)
    rented = -(-table.row_count // _RENT_ROWS) - 1
    assert peeked == [] and masked[rented:] == [table.row_count]
    assert set(masked[:rented]) == {table.heap.tuples_per_page}
    assert scan.last_stats.pages_fetched == table.num_pages > 10 * rented

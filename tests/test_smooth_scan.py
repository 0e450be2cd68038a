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
from repro.exec.expressions import Between, KeyRange
from repro.exec.scans import FullTableScan
from repro.exec.stats import measure

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
        db, FullTableScan(table, Between("c2", 0, 600) & residual)
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
# repeatedly, and the residual halves what each region contributes.

def _flush_plan(table, selectivity, residual=None):
    from repro.workloads.micro import selectivity_range
    return SmoothScan(table, "c2", selectivity_range(selectivity),
                      residual=residual)


FLUSH_CASES = {
    "smooth/0.1pct": lambda t: _flush_plan(t, 0.001),
    "smooth/1pct": lambda t: _flush_plan(t, 0.01),
    "smooth/5pct": lambda t: _flush_plan(t, 0.05),
    "smooth/20pct": lambda t: _flush_plan(t, 0.20),
    "smooth/5pct-residual": lambda t: _flush_plan(
        t, 0.05, Between("c3", 0, 50_000)),
}

FLUSH_GOLDEN = {
    "smooth/0.1pct": {
        "batches": [91],
        "cpu": [366, "f9b8e30a05de4d8c"],
        "io": [174, "cf395babb49b5393"],
        "rows": [91, "a8be9d7a8a8bce5b"],
    },
    "smooth/1pct": {
        "batches": [1036, 121],
        "cpu": [2053, "98eb30a04ce3359c"],
        "io": [104, "f0fb7a1fd46d28ab"],
        "rows": [1157, "0827603142e156dd"],
    },
    "smooth/20pct": {
        "batches": [1384, 1526, 1118, 4169, 1563, 1550, 9722, 1834, 779],
        "cpu": [2049, "955fdec14c4ef7f7"],
        "io": [57, "ace392053330636d"],
        "rows": [23645, "270c6658d5e6b3fd"],
    },
    "smooth/5pct": {
        "batches": [2067, 3251, 632],
        "cpu": [2029, "45d2b0fe72218cbd"],
        "io": [47, "b4791c5cfbce4bc9"],
        "rows": [5950, "6664980fec8ccd6b"],
    },
    "smooth/5pct-residual": {
        "batches": [1111, 1057, 750],
        "cpu": [2054, "fb37694ee3674c67"],
        "io": [97, "047b1bbd41761c2b"],
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
    wanted = FullTableScan(table, Between("c2", plan.key_range.lo,
                                          plan.key_range.hi))
    assert sorted(rows) == sorted(
        r for r in measure(db, wanted).rows
        if plan.residual.bind(plan.schema)(r))


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

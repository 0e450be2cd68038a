"""Access-path selection and the index advisor."""

import random

import pytest

from repro.core.smooth_scan import SmoothScan
from repro.database import Database
from repro.exec.expressions import (And, Between, Comparison, CompareOp,
                                   KeyRange)
from repro.exec.scans import FullTableScan, IndexScan, SortScan
from repro.exec.sort import Sort
from repro.exec.stats import measure
from repro.optimizer.advisor import IndexAdvisor, WorkloadQuery
from repro.optimizer.planner import Planner, PlannerOptions
from repro.optimizer.statistics import StatisticsCatalog
from repro.storage.types import Schema


@pytest.fixture()
def planned():
    # Large enough that the index/full tipping point sits inside the
    # value domain: 60K rows = 500 pages.
    db = Database()
    rng = random.Random(11)
    table = db.load_table(
        "t", Schema.of_ints([f"c{i}" for i in range(1, 11)]),
        (tuple([i] + [rng.randrange(100_000) for _ in range(9)])
         for i in range(60_000)),
    )
    db.create_index("t", "c2")
    catalog = StatisticsCatalog()
    catalog.analyze(table, columns=["c1", "c2"])
    return db, table, catalog


def test_tiny_selectivity_picks_index(planned):
    db, _t, catalog = planned
    planner = Planner(db, catalog)
    op, decision = planner.plan_scan("t", Between("c2", 0, 20))
    assert decision.path in ("index", "sort")
    assert decision.column == "c2"
    assert isinstance(op, (IndexScan, SortScan))


def test_high_selectivity_picks_full(planned):
    db, _t, catalog = planned
    planner = Planner(db, catalog)
    op, decision = planner.plan_scan("t", Between("c2", 0, 90_000))
    assert decision.path == "full"
    assert isinstance(op, FullTableScan)


def test_no_usable_index_falls_back_to_full(planned):
    db, _t, catalog = planned
    planner = Planner(db, catalog)
    op, decision = planner.plan_scan("t", Between("c5", 0, 10))
    assert decision.path == "full"
    assert decision.column is None


def test_order_by_indexed_column_without_predicate(planned):
    db, _t, catalog = planned
    planner = Planner(db, catalog)
    op, decision = planner.plan_scan("t", order_by="c2")
    # Any path is legal but the plan must produce c2-ordered output.
    rows = measure(db, op, keep_rows=True).rows
    keys = [r[1] for r in rows[:2_000]]
    assert keys == sorted(keys)


def test_plans_execute_equivalently(planned):
    db, table, catalog = planned
    pred = Between("c2", 0, 400)
    expected = sorted(measure(db, FullTableScan(table, pred)).rows)
    for options in (PlannerOptions(),
                    PlannerOptions(enable_sort_scan=False),
                    PlannerOptions(enable_index=False),
                    PlannerOptions(enable_smooth=True)):
        planner = Planner(db, catalog, options)
        op, _decision = planner.plan_scan("t", pred)
        assert sorted(measure(db, op).rows) == expected


def test_smooth_planner_always_smooth(planned):
    db, _t, catalog = planned
    planner = Planner(db, catalog, PlannerOptions(enable_smooth=True))
    op, decision = planner.plan_scan("t", Between("c2", 0, 90_000))
    assert decision.path == "smooth"
    assert isinstance(op, SmoothScan)


def test_smooth_planner_ordered_when_order_matches_index(planned):
    db, _t, catalog = planned
    planner = Planner(db, catalog, PlannerOptions(enable_smooth=True))
    op, _d = planner.plan_scan("t", Between("c2", 0, 500), order_by="c2")
    assert isinstance(op, SmoothScan) and op.ordered


def test_smooth_planner_sorts_for_other_order(planned):
    db, _t, catalog = planned
    planner = Planner(db, catalog, PlannerOptions(enable_smooth=True))
    op, _d = planner.plan_scan("t", Between("c2", 0, 500), order_by="c1")
    assert isinstance(op, Sort)


def test_decision_records_alternatives(planned):
    db, _t, catalog = planned
    planner = Planner(db, catalog)
    _op, decision = planner.plan_scan("t", Between("c2", 0, 100))
    assert set(decision.alternatives) == {"full", "index", "sort"}
    assert decision.estimated_cost == min(decision.alternatives.values())


def test_misestimated_plan_is_the_papers_trap(planned):
    """A wrongly tiny estimate makes the planner pick the index path even
    when the true selectivity would melt it — Section I's motivation."""
    db, _t, catalog = planned
    catalog.table_stats("t").row_count //= 1_000  # stale statistics
    planner = Planner(db, catalog)
    _op, decision = planner.plan_scan("t", Between("c2", 0, 2_000))
    assert decision.estimated_cardinality < 200  # wildly wrong
    # The chosen path's estimated cost looked fine; execution won't be.


# -- index opportunity selection --------------------------------------------

@pytest.fixture()
def two_indexed():
    """c2 uniform over 100K, c3 uniform over 100; both indexed (c2 first)."""
    db = Database()
    rng = random.Random(17)
    table = db.load_table(
        "t", Schema.of_ints(["c1", "c2", "c3", "c4"]),
        ((i, rng.randrange(100_000), rng.randrange(100),
          rng.randrange(10)) for i in range(20_000)),
    )
    db.create_index("t", "c2")
    db.create_index("t", "c3")
    return db, table


def test_index_opportunity_prefers_tighter_range(two_indexed):
    db, table = two_indexed
    catalog = StatisticsCatalog()
    catalog.analyze(table, columns=["c2", "c3"])
    planner = Planner(db, catalog)
    pred = And([Between("c2", 0, 50_000), Between("c3", 0, 5)])
    op, decision = planner.plan_scan("t", pred)
    # ~5% on c3 beats ~50% on c2: the tighter estimated range drives.
    assert decision.column == "c3"
    # The c2 conjunct survives as the access path's residual predicate.
    assert isinstance(op, (IndexScan, SortScan, FullTableScan))
    if not isinstance(op, FullTableScan):
        assert op.residual == Between("c2", 0, 50_000)


def test_index_opportunity_tie_breaks_by_index_order(two_indexed):
    db, _table = two_indexed
    # No statistics: both ranges estimate to the same magic default, so
    # the tie resolves to the first index registered (c2).
    planner = Planner(db, StatisticsCatalog())
    pred = And([Between("c2", 0, 10), Between("c3", 0, 10)])
    _op, decision = planner.plan_scan("t", pred)
    assert decision.column == "c2"


def test_residual_preserved_on_forced_index(two_indexed):
    db, table = two_indexed
    catalog = StatisticsCatalog()
    catalog.analyze(table, columns=["c2", "c3"])
    planner = Planner(db, catalog, PlannerOptions(force_path="index"))
    residual = Comparison("c4", CompareOp.EQ, 3)
    op, decision = planner.plan_scan("t", And([Between("c3", 0, 5),
                                                 residual]))
    assert isinstance(op, IndexScan) and decision.column == "c3"
    assert op.residual == residual
    assert op.key_range == KeyRange(0, 5)
    # Executed rows honor both the range and the residual.
    rows = measure(db, op).rows
    assert rows and all(0 <= r[2] < 5 and r[3] == 3 for r in rows)


def test_order_by_index_used_when_predicate_has_no_range(two_indexed):
    db, table = two_indexed
    catalog = StatisticsCatalog()
    catalog.analyze(table)
    planner = Planner(db, catalog)
    pred = Comparison("c4", CompareOp.EQ, 3)
    op, decision = planner.plan_scan("t", pred, order_by="c2")
    # No range on any indexed column: the c2 index still qualifies via
    # the requested order, with the whole predicate as residual.
    assert decision.column == "c2"
    rows = measure(db, op).rows
    keys = [r[1] for r in rows]
    assert keys == sorted(keys) and all(r[3] == 3 for r in rows)


def test_order_by_other_column_penalizes_index_path(two_indexed):
    db, table = two_indexed
    catalog = StatisticsCatalog()
    catalog.analyze(table, columns=["c2", "c3"])
    planner = Planner(db, catalog)
    pred = Between("c3", 0, 40)
    # Ordering on a column the chosen index does NOT provide: the index
    # path pays the posterior sort penalty like everyone else.
    _op, plain = planner.plan_scan("t", pred)
    _op, ordered = planner.plan_scan("t", pred, order_by="c2")
    penalty = ordered.alternatives["index"] - plain.alternatives["index"]
    assert penalty > 0
    # Ordering on the index's own column stays penalty-free.
    _op, matching = planner.plan_scan("t", pred, order_by="c3")
    assert matching.alternatives["index"] == plain.alternatives["index"]
    assert ordered.estimated_cost == min(ordered.alternatives.values())


def test_enable_flags_filter_alternatives(two_indexed):
    db, table = two_indexed
    catalog = StatisticsCatalog()
    catalog.analyze(table, columns=["c2", "c3"])
    pred = Between("c3", 0, 5)
    cases = [
        (PlannerOptions(), {"full", "index", "sort"}),
        (PlannerOptions(enable_index=False), {"full", "sort"}),
        (PlannerOptions(enable_sort_scan=False), {"full", "index"}),
        (PlannerOptions(enable_index=False, enable_sort_scan=False),
         {"full"}),
    ]
    for options, expected in cases:
        planner = Planner(db, catalog, options)
        _op, decision = planner.plan_scan("t", pred)
        assert set(decision.alternatives) == expected
        assert decision.path in expected
        assert decision.estimated_cost == min(decision.alternatives.values())


# -- advisor ----------------------------------------------------------------

@pytest.fixture()
def advisor_setup():
    db = Database()
    rng = random.Random(5)
    db.load_table(
        "t", Schema.of_ints(["c1", "c2", "c3"]),
        ((i, rng.randrange(10_000), rng.randrange(100))
         for i in range(50_000)),
    )
    catalog = StatisticsCatalog()
    catalog.analyze(db.table("t"))
    return db, catalog


def test_advisor_recommends_beneficial_index(advisor_setup):
    db, catalog = advisor_setup
    advisor = IndexAdvisor(db, catalog)
    workload = [WorkloadQuery("t", Between("c2", 0, 20))]
    rec = advisor.recommend(workload, space_budget_bytes=10**9)
    assert ("t", "c2") in rec.indexes
    assert rec.benefits[("t", "c2")] > 0


def test_advisor_skips_useless_candidates(advisor_setup):
    db, catalog = advisor_setup
    advisor = IndexAdvisor(db, catalog)
    # 100% selectivity: an index cannot beat the full scan.
    workload = [WorkloadQuery("t", Between("c2", 0, 10_000))]
    rec = advisor.recommend(workload, space_budget_bytes=10**9)
    assert rec.indexes == []


def test_advisor_respects_budget(advisor_setup):
    db, catalog = advisor_setup
    advisor = IndexAdvisor(db, catalog)
    workload = [WorkloadQuery("t", Between("c2", 0, 20)),
                WorkloadQuery("t", Comparison("c3", CompareOp.EQ, 5))]
    rec = advisor.recommend(workload, space_budget_bytes=1)
    assert rec.indexes == []
    assert rec.total_bytes == 0


def test_advisor_apply_creates_indexes(advisor_setup):
    db, catalog = advisor_setup
    advisor = IndexAdvisor(db, catalog)
    workload = [WorkloadQuery("t", Between("c2", 0, 20))]
    rec = advisor.recommend(workload, space_budget_bytes=10**9)
    advisor.apply(rec)
    assert db.table("t").has_index("c2")
    # Idempotent: re-applying is a no-op.
    advisor.apply(rec)


def test_advisor_candidates_include_order_by(advisor_setup):
    db, catalog = advisor_setup
    advisor = IndexAdvisor(db, catalog)
    workload = [WorkloadQuery("t", Between("c2", 0, 100), order_by="c3")]
    cands = advisor.candidate_columns(workload)
    assert ("t", "c2") in cands and ("t", "c3") in cands

"""TPC-H query integration: identical results under every configuration.

The executable correctness contract behind Figures 1 and 4: whatever
access paths and join methods the builder picks — original, tuned (with
whatever the advisor created), or all-Smooth-Scan — every query must
return exactly the same rows.
"""

import pytest

from repro.database import Database
from repro.exec.stats import measure
from repro.optimizer.statistics import StatisticsCatalog
from repro.workloads.tpch import (
    FIGURE1_QUERIES,
    TpchPlanBuilder,
    build_query,
    generate_tpch,
)
from repro.workloads.tpch.schema import date


@pytest.fixture(scope="module")
def tpch_db():
    db = Database()
    tables = generate_tpch(db, scale_factor=0.002, seed=9,
                           stale_batch_cutoff=date(1993, 9, 2))
    catalog = StatisticsCatalog()
    for table in tables.all_tables():
        catalog.analyze(table)
    # Tuning indexes so tuned/smooth modes exercise index paths.
    for table_name, column in (("lineitem", "l_shipdate"),
                               ("lineitem", "l_receiptdate"),
                               ("orders", "o_orderdate"),
                               ("lineitem", "l_partkey")):
        db.create_index(table_name, column)
    return db, catalog


def _canon(rows):
    """Canonicalize rows: round floats so emission order does not leak
    into float-sum comparisons (sums are not associative)."""
    def canon_value(v):
        if isinstance(v, float):
            return round(v, 4)
        return v

    return sorted(tuple(canon_value(v) for v in row) for row in rows)


@pytest.mark.parametrize("name", sorted(FIGURE1_QUERIES))
def test_query_results_identical_across_modes(tpch_db, name):
    db, catalog = tpch_db
    reference = None
    for mode in ("original", "tuned", "smooth"):
        builder = TpchPlanBuilder(db, catalog, mode)
        plan = build_query(name, builder)
        rows = _canon(measure(db, plan).rows)
        if reference is None:
            reference = rows
        else:
            assert rows == reference, f"{name} differs under {mode}"


def test_q1_aggregates_are_sensible(tpch_db):
    db, catalog = tpch_db
    builder = TpchPlanBuilder(db, catalog, "original")
    rows = measure(db, build_query("Q1", builder)).rows
    assert 1 <= len(rows) <= 4  # (returnflag, linestatus) combos
    for row in rows:
        flag, status, sum_qty, sum_base, *_rest, count = row
        assert flag in ("R", "A", "N") and status in ("F", "O")
        assert sum_qty > 0 and sum_base > 0 and count > 0


def test_q6_is_scalar(tpch_db):
    db, catalog = tpch_db
    builder = TpchPlanBuilder(db, catalog, "original")
    rows = measure(db, build_query("Q6", builder)).rows
    assert len(rows) == 1
    assert rows[0][0] > 0


def test_q14_is_percentage(tpch_db):
    db, catalog = tpch_db
    builder = TpchPlanBuilder(db, catalog, "original")
    rows = measure(db, build_query("Q14", builder)).rows
    assert len(rows) == 1
    assert 0.0 <= rows[0][0] <= 100.0


def test_q13_distribution_covers_every_customer(tpch_db):
    """Left-join semantics: the distribution must count ALL customers,
    including any with zero orders."""
    db, catalog = tpch_db
    builder = TpchPlanBuilder(db, catalog, "original")
    rows = measure(db, build_query("Q13", builder)).rows
    total_customers = sum(r[1] for r in rows)
    assert total_customers == db.table("customer").row_count
    zero_order = {row[0] for row in
                  db.table("customer").heap.image()[:].to_rows()}
    ordered = {row[1] for row in db.table("orders").heap.image()[:].to_rows()}
    expected_zero = len(zero_order - ordered)
    zero_bucket = next((r[1] for r in rows if r[0] == 0), 0)
    assert zero_bucket == expected_zero


def test_q22_anti_join(tpch_db):
    db, catalog = tpch_db
    builder = TpchPlanBuilder(db, catalog, "original")
    rows = measure(db, build_query("Q22", builder)).rows
    for _nation, numcust, totacctbal in rows:
        assert numcust > 0
        assert totacctbal > 0


def test_unknown_query_rejected(tpch_db):
    db, catalog = tpch_db
    from repro.errors import PlanningError
    builder = TpchPlanBuilder(db, catalog, "original")
    with pytest.raises(PlanningError):
        build_query("Q99", builder)


def test_unknown_mode_rejected(tpch_db):
    db, catalog = tpch_db
    from repro.errors import PlanningError
    with pytest.raises(PlanningError):
        TpchPlanBuilder(db, catalog, "turbo")


def test_limit_queries_respect_limits(tpch_db):
    db, catalog = tpch_db
    builder = TpchPlanBuilder(db, catalog, "original")
    assert len(measure(db, build_query("Q3", builder)).rows) <= 10
    assert len(measure(db, build_query("Q10", builder)).rows) <= 20


def test_tuned_mode_uses_some_index_path(tpch_db):
    """With tuning indexes + fresh stats the planner still picks index
    paths for genuinely selective scans (Q14's one-month range)."""
    db, catalog = tpch_db
    builder = TpchPlanBuilder(db, catalog, "tuned")
    plan = build_query("Q14", builder)
    from repro.exec.iterator import explain
    assert "Scan(lineitem" in explain(plan)

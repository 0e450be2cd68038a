"""SQL TPC-H queries are measurement-identical to their hand-built trees.

The acceptance bar for the SQL front end: Q1, Q6 and Q14 written as SQL
text must lower to plans that charge the same simulated cost and produce
the same rows as the operator trees ``workloads/tpch/queries.py`` wires
by hand, in every Figure-1 execution mode — and as the same queries
built with the fluent API (``Query.aggregate`` / ``Query.map`` over
:mod:`repro.exec.values` chunk functions).  Also covers the EXPLAIN
rendering and the requirement that a hint comment demonstrably changes
the chosen access path.
"""

import pytest

from repro.exec.aggregates import AggSpec
from repro.exec.expressions import Between, CompareOp, Comparison, StringMatch
from repro.exec.stats import measure
from repro.exec.values import (
    arith,
    case,
    column,
    compute,
    compute_all,
    constant,
)
from repro.experiments.fig1 import make_tuned_tpch
from repro.sql import compile_statement
from repro.storage.types import Column, ColumnType, Schema
from repro.workloads.tpch.queries import (
    FIGURE1_QUERIES,
    SQL_QUERIES,
    TpchPlanBuilder,
    mode_options,
)
from repro.workloads.tpch.schema import date

MODES = ("original", "tuned", "smooth")


@pytest.fixture(scope="module")
def setup():
    return make_tuned_tpch(scale_factor=0.002)


def disc_price(schema):
    """``l_extendedprice * (1 - l_discount)`` over ``schema``."""
    return arith("*", column(schema.index_of("l_extendedprice")),
                 arith("-", constant(1),
                       column(schema.index_of("l_discount"))))


def fluent_q1(db):
    s = db.table("lineitem").schema
    charge = arith("*", disc_price(s),
                   arith("+", constant(1), column(s.index_of("l_tax"))))
    return (
        db.query("lineitem")
        .where(Comparison("l_shipdate", CompareOp.LE, date(1998, 9, 2)))
        .group_by("l_returnflag", "l_linestatus")
        .aggregate(
            AggSpec("sum", "sum_qty", column="l_quantity"),
            AggSpec("sum", "sum_base_price", column="l_extendedprice"),
            AggSpec("sum", "sum_disc_price", value=compute(disc_price(s))),
            AggSpec("sum", "sum_charge", value=compute(charge)),
            AggSpec("avg", "avg_qty", column="l_quantity"),
            AggSpec("avg", "avg_price", column="l_extendedprice"),
            AggSpec("avg", "avg_disc", column="l_discount"),
            AggSpec("count", "count_order"),
        )
        .order_by("l_returnflag", "l_linestatus")
    )


def fluent_q6(db):
    s = db.table("lineitem").schema
    revenue = arith("*", column(s.index_of("l_extendedprice")),
                    column(s.index_of("l_discount")))
    return (
        db.query("lineitem")
        .where(
            Between("l_shipdate", date(1994, 1, 1), date(1995, 1, 1)),
            Between("l_discount", 0.05, 0.07, hi_inclusive=True),
            Comparison("l_quantity", CompareOp.LT, 24),
        )
        .aggregate(AggSpec("sum", "revenue", value=compute(revenue)))
    )


def fluent_q14(db):
    s = Schema(list(db.table("lineitem").schema.columns)
               + list(db.table("part").schema.columns))
    promo = case(StringMatch("p_type", "prefix", "PROMO"), s,
                 disc_price(s), constant(0.0))
    pct = arith("/", arith("*", constant(100.0), column(0)), column(1))
    return (
        db.query("lineitem")
        .where(Between("l_shipdate", date(1995, 9, 1), date(1995, 10, 1)))
        .join("part", on=("l_partkey", "p_partkey"))
        .aggregate(
            AggSpec("sum", "promo_revenue", value=compute(promo)),
            AggSpec("sum", "total_revenue", value=compute(disc_price(s))),
        )
        .map(Schema([Column("promo_pct", ColumnType.FLOAT)]),
             compute_all([pct]))
    )


FLUENT_QUERIES = {"Q1": fluent_q1, "Q6": fluent_q6, "Q14": fluent_q14}


def run_fluent(setup, name, mode):
    return setup.db.execute(
        FLUENT_QUERIES[name](setup.db), cold=True,
        options=mode_options(mode), catalog=setup.catalog,
    )


def run_hand_built(setup, name, mode):
    builder = TpchPlanBuilder(setup.db, setup.catalog, mode)
    return measure(setup.db, FIGURE1_QUERIES[name](builder), cold=True)


def run_text(setup, text, options=None, keep_rows=True):
    """Execute SQL text against the stale catalog (uncached)."""
    bound = compile_statement(setup.db, text)
    return setup.db.execute(
        bound.spec, cold=True, keep_rows=keep_rows,
        options=bound.planner_options(options), catalog=setup.catalog,
    )


def plan_text(setup, text, options=None):
    """The rendered plan of SQL text (``EXPLAIN`` optional)."""
    bound = compile_statement(setup.db, text)
    return setup.db.plan(bound.spec, options=bound.planner_options(options),
                         catalog=setup.catalog).render()


def run_sql(setup, name, mode):
    return run_text(setup, SQL_QUERIES[name], mode_options(mode))


@pytest.mark.parametrize("name", sorted(SQL_QUERIES))
@pytest.mark.parametrize("mode", MODES)
def test_sql_measurement_identical_to_hand_built(setup, name, mode):
    hand = run_hand_built(setup, name, mode)
    sql = run_sql(setup, name, mode)
    assert sql.rows == hand.rows                        # byte-identical
    # Every ledger field: event counts, Table-II I/O, buffer hits/misses.
    assert sql.run.ledger == hand.ledger
    assert sql.run.ledger.to_dict() == hand.ledger.to_dict()
    assert sql.io_ms == hand.io_ms
    assert sql.cpu_ms == hand.cpu_ms


@pytest.mark.parametrize("name", sorted(SQL_QUERIES))
@pytest.mark.parametrize("mode", MODES)
def test_sql_measurement_identical_to_fluent(setup, name, mode):
    fluent = run_fluent(setup, name, mode)
    sql = run_sql(setup, name, mode)
    assert sql.rows == fluent.rows                      # byte-identical
    assert sql.run.ledger == fluent.run.ledger
    # Same access-path decisions, in the same plan order.
    assert [d.path for d in sql.decisions] == \
        [d.path for d in fluent.decisions]


def test_sql_queries_cover_the_fluent_set():
    assert sorted(SQL_QUERIES) == sorted(FLUENT_QUERIES)


def test_explain_renders_estimated_and_actual(setup):
    text = plan_text(setup, "EXPLAIN " + SQL_QUERIES["Q6"],
                     mode_options("tuned"))
    assert "rows est=" in text and "act=?" in text
    # After execution the executed result's tree reports actuals.
    result = run_sql(setup, "Q6", "tuned")
    executed = result.explain()
    assert "act=?" not in executed.splitlines()[0]


def test_database_explain_accepts_plain_select(setup):
    text = plan_text(setup, SQL_QUERIES["Q1"])
    assert "HashAggregate" in text and "lineitem" in text


def test_hint_changes_chosen_access_path(setup):
    base = "SELECT count(*) AS n FROM lineitem WHERE l_quantity < 24"
    hinted = ("SELECT /*+ force_path(smooth) */ count(*) AS n "
              "FROM lineitem WHERE l_quantity < 24")
    plain = run_text(setup, base, keep_rows=False)
    smooth = run_text(setup, hinted, keep_rows=False)
    assert plain.decisions[0].path != "smooth"
    assert smooth.decisions[0].path == "smooth"
    assert smooth.row_count == plain.row_count
    assert "SmoothScan" in smooth.explain()


def test_no_inlj_hint_switches_join_method(setup):
    base = """
        SELECT count(*) AS n
        FROM lineitem
        JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate >= DATE '1995-09-01'
          AND l_shipdate < DATE '1995-10-01'
    """
    hinted = base.replace("SELECT", "SELECT /*+ no_inlj */", 1)
    plain = run_text(setup, base, keep_rows=False)
    no_inlj = run_text(setup, hinted, keep_rows=False)
    plain_paths = [d.path for d in plain.decisions]
    hinted_paths = [d.path for d in no_inlj.decisions]
    assert "inlj" in plain_paths          # tuned Q14 probes part via INLJ
    assert "inlj" not in hinted_paths
    assert "hash" in hinted_paths
    assert no_inlj.row_count == plain.row_count

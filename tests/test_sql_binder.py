"""Binder lowering: SQL text → QuerySpec → plans and results.

The load-bearing guarantee mirrors the fluent API's: a bound SQL query
plans and executes through exactly the same ``plan_query`` machinery, so
these tests compare bound specs (and, where cheap, executed results)
against their hand-built fluent equivalents.
"""

import sqlite3

import pytest

from repro.database import Database
from repro.errors import SqlError
from repro.exec.aggregates import AggSpec
from repro.exec.expressions import (
    Between,
    ColumnComparison,
    CompareOp,
    Comparison,
    InList,
    Not,
    Or,
    StringMatch,
    TruePredicate,
)
from repro.sql import compile_statement
from repro.storage.chunk import Chunk
from repro.storage.types import Column, ColumnType, Schema


@pytest.fixture(scope="module")
def shop():
    """Two small joined tables: customers and orders."""
    db = Database()
    db.load_table(
        "cust",
        Schema([Column("c_id"), Column("c_nation"),
                Column("c_name", ColumnType.CHAR, 8)]),
        [(i, i % 5, f"name{i:03d}") for i in range(200)],
    )
    db.load_table(
        "ord",
        Schema([Column("o_id"), Column("o_cust"), Column("o_total")]),
        [(i, (i * 7) % 170, i % 90) for i in range(400)],
    )
    db.create_index("ord", "o_cust")
    db.analyze()
    return db


def spec_of(db, text):
    return compile_statement(db, text).spec


# -- WHERE lowering ----------------------------------------------------------

def test_where_lowering_shapes(shop):
    spec = spec_of(shop, """
        SELECT * FROM cust
        WHERE c_id BETWEEN 10 AND 20 AND c_nation IN (1, 2)
          AND c_name LIKE 'name0%' AND NOT c_id = 13
    """)
    parts = spec.predicate.parts
    assert parts[0] == Between("c_id", 10, 20, True, True)
    assert parts[1] == InList("c_nation", (1, 2))
    assert parts[2] == StringMatch("c_name", "prefix", "name0")
    assert isinstance(parts[3], Not)


def test_where_bounds_merge_into_between(shop):
    spec = spec_of(shop,
                   "SELECT * FROM cust WHERE c_id >= 10 AND c_id < 20")
    assert spec.predicate == Between("c_id", 10, 20, True, False)


def test_where_merge_keeps_other_conjuncts_in_place(shop):
    spec = spec_of(shop, """
        SELECT * FROM cust
        WHERE c_id > 10 AND c_nation = 2 AND c_id <= 90
    """)
    assert spec.predicate.parts == (
        Between("c_id", 10, 90, False, True),
        Comparison("c_nation", CompareOp.EQ, 2),
    )


def test_where_flipped_literal_comparison(shop):
    spec = spec_of(shop, "SELECT * FROM cust WHERE 10 < c_id")
    assert spec.predicate == Comparison("c_id", CompareOp.GT, 10)


def test_where_column_vs_column(shop):
    spec = spec_of(shop, "SELECT * FROM ord WHERE o_total > o_cust")
    assert spec.predicate == ColumnComparison("o_total", CompareOp.GT,
                                              "o_cust")


def test_where_or_and_literal_like_equality(shop):
    spec = spec_of(shop, """
        SELECT * FROM cust WHERE c_nation = 1 OR c_name LIKE 'name007'
    """)
    assert isinstance(spec.predicate, Or)
    assert spec.predicate.parts[1] == Comparison(
        "c_name", CompareOp.EQ, "name007"
    )


def test_where_like_suffix_and_contains(shop):
    spec = spec_of(shop, """
        SELECT * FROM cust
        WHERE c_name LIKE '%07' AND c_name LIKE '%me0%'
    """)
    assert spec.predicate.parts == (
        StringMatch("c_name", "suffix", "07"),
        StringMatch("c_name", "contains", "me0"),
    )


def test_no_where_is_true_predicate(shop):
    assert isinstance(spec_of(shop, "SELECT * FROM cust").predicate,
                      TruePredicate)


# -- joins -------------------------------------------------------------------

def test_inner_join_orientation_is_membership_based(shop):
    for text in (
        "SELECT * FROM cust JOIN ord ON c_id = o_cust",
        "SELECT * FROM cust JOIN ord ON o_cust = c_id",
        "SELECT * FROM cust JOIN ord ON cust.c_id = ord.o_cust",
    ):
        spec = spec_of(shop, text)
        join = spec.joins[0]
        assert (join.table, join.left_key, join.right_key, join.how) == \
            ("ord", "c_id", "o_cust", "inner")


def test_left_join_kind(shop):
    spec = spec_of(shop,
                   "SELECT * FROM cust LEFT JOIN ord ON c_id = o_cust")
    assert spec.joins[0].how == "left"


def test_exists_becomes_semi_join(shop):
    spec = spec_of(shop, """
        SELECT * FROM cust
        WHERE EXISTS (SELECT * FROM ord WHERE o_cust = c_id
                      AND o_total > 50)
    """)
    join = spec.joins[0]
    assert (join.table, join.left_key, join.right_key, join.how) == \
        ("ord", "c_id", "o_cust", "semi")
    # The uncorrelated conjunct is pushed into the main predicate.
    assert spec.predicate == Comparison("o_total", CompareOp.GT, 50)


def test_qualified_shared_names_refused_everywhere(db):
    # Predicates execute by bare name, so a qualifier cannot pick one
    # of two same-named columns — the binder must refuse rather than
    # let the planner re-aim the filter at the visible owner.
    db.load_table("cst2", Schema([Column("c_id"), Column("total")]),
                  [(1, 120), (2, 80), (3, 60)])
    db.load_table("orr2", Schema([Column("o_id"), Column("o_cust"),
                                  Column("total")]),
                  [(10, 1, 55), (11, 2, 10), (12, 3, 70)])
    for text in (
        "SELECT c_id FROM cst2 SEMI JOIN orr2 ON o_cust = c_id "
        "WHERE orr2.total >= 50",
        "SELECT c_id FROM cst2 SEMI JOIN orr2 ON o_cust = c_id "
        "WHERE cst2.total = orr2.total",
    ):
        with pytest.raises(SqlError, match="rename columns"):
            compile_statement(db, text)


def test_min_max_output_schema_keeps_source_type(shop):
    result = shop.connect().run(
        "SELECT min(c_name) AS lo, max(c_id) AS hi FROM cust"
    )
    lo, hi = result.plan.root.schema.columns
    assert lo.ctype == ColumnType.CHAR and lo.length == 8
    assert hi.ctype == ColumnType.INT
    assert result.rows == [("name000", 199)]


def test_exists_pushdown_refuses_shared_column_names(db):
    # A pushed inner conjunct travels by bare name; if the outer side
    # also has that column the planner would re-aim the filter, so the
    # binder must refuse instead of running the wrong query.
    db.load_table("cst", Schema([Column("c_id"), Column("total")]),
                  [(1, 120), (2, 80), (3, 60)])
    db.load_table("orr", Schema([Column("o_id"), Column("o_cust"),
                                 Column("total")]),
                  [(10, 1, 55), (11, 2, 10), (12, 3, 70)])
    with pytest.raises(SqlError,
                       match=r"\['total'\] inside EXISTS also exist"):
        compile_statement(db, """
            SELECT * FROM cst WHERE EXISTS
                (SELECT * FROM orr WHERE o_cust = c_id AND total >= 50)
        """)


def test_like_on_numeric_column_rejected_at_bind_time(shop):
    with pytest.raises(SqlError, match="LIKE needs a string column"):
        spec_of(shop, "SELECT * FROM cust WHERE c_id LIKE '1%'")


def test_exists_correlation_with_bogus_qualifier_errors(shop):
    with pytest.raises(SqlError, match="unknown table 'bogus'"):
        spec_of(shop, "SELECT * FROM cust WHERE EXISTS "
                      "(SELECT * FROM ord WHERE bogus.o_cust = c_id)")


def test_hint_inside_exists_subquery_rejected(shop):
    with pytest.raises(SqlError, match="not inside subqueries"):
        spec_of(shop, "SELECT * FROM cust WHERE EXISTS "
                      "(SELECT /*+ no_inlj */ * FROM ord "
                      "WHERE o_cust = c_id)")


def test_like_percent_matches_everything(shop):
    spec = spec_of(shop, "SELECT * FROM cust WHERE c_name LIKE '%'")
    assert isinstance(spec.predicate, TruePredicate)
    n = shop.connect().run("SELECT count(*) AS n FROM cust WHERE c_name LIKE '%'")
    assert n.rows == [(200,)]


def test_sum_over_char_column_rejected_at_bind_time(shop):
    with pytest.raises(SqlError, match="needs a numeric argument"):
        spec_of(shop, "SELECT sum(c_name) AS s FROM cust")
    with pytest.raises(SqlError, match="needs a numeric argument"):
        spec_of(shop, "SELECT avg(CASE WHEN c_id = 1 THEN c_name "
                      "ELSE c_name END) AS s FROM cust")
    # min/max over strings is fine.
    result = shop.connect().run("SELECT min(c_name) AS lo FROM cust")
    assert result.rows == [("name000",)]


def test_exists_inner_columns_do_not_leak_into_where(shop):
    # Outside the subquery, inner-only columns are unknown — and the
    # answer must not depend on where the conjunct is written.
    for text in (
        "SELECT * FROM cust WHERE EXISTS "
        "(SELECT * FROM ord WHERE o_cust = c_id) AND o_total > 5",
        "SELECT * FROM cust WHERE o_total > 5 AND EXISTS "
        "(SELECT * FROM ord WHERE o_cust = c_id)",
    ):
        with pytest.raises(SqlError, match="unknown column 'o_total'"):
            spec_of(shop, text)


def test_exists_select_list_is_validated(shop):
    with pytest.raises(SqlError, match="unknown column 'totally_bogus'"):
        spec_of(shop, "SELECT * FROM cust WHERE EXISTS "
                      "(SELECT totally_bogus FROM ord WHERE o_cust = c_id)")
    # '*', literals and real inner columns are all fine.
    spec = spec_of(shop, "SELECT * FROM cust WHERE EXISTS "
                         "(SELECT 1 FROM ord WHERE o_cust = c_id)")
    assert spec.joins[0].how == "semi"


def test_binder_aggregate_schema_matches_operator(shop):
    # The binder's predicted aggregate layout and the executor's actual
    # HashAggregate schema come from one shared rule — including the
    # min/max source-type preservation.
    spec = spec_of(shop, """
        SELECT c_nation, min(c_name) AS first_name,
               100.0 * count(*) AS pct
        FROM cust GROUP BY c_nation
    """)
    planned = shop.plan(spec)
    agg_op = next(op for op in planned.operators()
                  if op.__class__.__name__ == "HashAggregate")
    name_col = agg_op.schema.columns[agg_op.schema.index_of("first_name")]
    assert name_col.ctype == ColumnType.CHAR and name_col.length == 8


def test_not_exists_becomes_anti_join(shop):
    spec = spec_of(shop, """
        SELECT * FROM cust WHERE NOT EXISTS
            (SELECT * FROM ord WHERE o_cust = c_id)
    """)
    assert spec.joins[0].how == "anti"


def test_semi_join_sql_results_match_fluent(shop):
    sql = shop.connect().run("""
        SELECT * FROM cust
        WHERE EXISTS (SELECT * FROM ord WHERE o_cust = c_id
                      AND o_total > 50)
        ORDER BY c_id
    """)
    fluent = (
        shop.query("cust")
        .where(Comparison("o_total", CompareOp.GT, 50))
        .join("ord", on=("c_id", "o_cust"), how="semi")
        .order_by("c_id")
        .run()
    )
    assert sql.rows == fluent.rows
    assert sql.io_ms == fluent.io_ms and sql.cpu_ms == fluent.cpu_ms


# -- select list / aggregation ----------------------------------------------

def test_star_means_no_projection(shop):
    assert spec_of(shop, "SELECT * FROM cust").select == ()


def test_plain_columns_project(shop):
    spec = spec_of(shop, "SELECT c_name, c_id FROM cust")
    assert spec.select == ("c_name", "c_id")


def test_aggregates_simple_and_computed(shop):
    spec = spec_of(shop, """
        SELECT c_nation, count(*) AS n, sum(c_id) AS total,
               sum(c_id * 2) AS doubled
        FROM cust GROUP BY c_nation
    """)
    assert spec.group_by == ("c_nation",)
    assert spec.select == ()  # natural layout: no trailing projection
    n, total, doubled = spec.aggregates
    assert n == AggSpec("count", "n")
    assert total == AggSpec("sum", "total", column="c_id")
    assert doubled.func == "sum" and doubled.value is not None
    chunk = Chunk.from_rows(("c_id", "c_nation", "c_name"), [(7, 0, "x")])
    assert doubled.value(chunk).tolist() == [14]


def test_aggregate_reordered_items_project(shop):
    spec = spec_of(shop, """
        SELECT count(*) AS n, c_nation FROM cust GROUP BY c_nation
    """)
    assert spec.select == ("n", "c_nation")


def test_composite_select_item_becomes_map(shop):
    spec = spec_of(shop, """
        SELECT 100.0 * sum(c_id) / count(*) AS avg_pct
        FROM cust
    """)
    assert len(spec.aggregates) == 2
    assert len(spec.maps) == 1
    assert spec.maps[0].schema.column_names == ("avg_pct",)
    result = shop.execute(spec)
    total = sum(i for i in range(200))
    assert result.rows == [(100.0 * total / 200,)]


def test_scalar_aggregate_without_group(shop):
    result = shop.connect().run("SELECT count(*) AS n, max(o_total) AS m FROM ord")
    assert result.rows == [(400, 89)]


def sqlite_shop(db):
    """The shop's rows in stdlib sqlite3, the outside witness."""
    witness = sqlite3.connect(":memory:")
    for name in ("cust", "ord"):
        table = db.table(name)
        columns = ", ".join(table.schema.column_names)
        witness.execute(f"CREATE TABLE {name} ({columns})")
        rows = [table.heap.row(pos) for pos in range(table.row_count)]
        witness.executemany(
            f"INSERT INTO {name} VALUES "
            f"({', '.join('?' * len(table.schema.column_names))})", rows)
    return witness


def assert_matches_sqlite(db, sql, witness_sql=None):
    got = sorted(db.connect().run(sql).rows)
    want = sorted(sqlite_shop(db).execute(witness_sql or sql).fetchall())
    assert len(got) == len(want)
    for g_row, w_row in zip(got, want, strict=True):
        assert g_row == pytest.approx(w_row), (g_row, w_row)
    return got


def test_arithmetic_over_a_left_join_null_pad_is_null(shop):
    """Customers with no orders carry NULL o_total: ``o_total * 2`` is
    NULL there, and every aggregate skips it."""
    got = assert_matches_sqlite(shop, """
        SELECT c_nation, sum(o_total * 2) AS s, avg(o_total * 2) AS a,
               min(o_total * 2) AS lo, max(o_total * 2) AS hi,
               count(o_total * 2) AS n, count(*) AS rows_in
        FROM cust LEFT JOIN ord ON c_id = o_cust GROUP BY c_nation
    """)
    assert all(n < rows_in for *_rest, n, rows_in in got)


def test_a_null_case_condition_takes_else(shop):
    assert_matches_sqlite(shop, """
        SELECT c_nation,
               sum(CASE WHEN o_total > 3 THEN 1.0 ELSE 0.0 END) AS s,
               sum(CASE WHEN NOT o_total > 3 THEN 1.0 ELSE 0.0 END) AS t
        FROM cust LEFT JOIN ord ON c_id = o_cust GROUP BY c_nation
    """)


def test_duplicate_output_columns_rejected(shop):
    with pytest.raises(SqlError, match="duplicate select column 'c_id'"):
        spec_of(shop, "SELECT c_id, c_id FROM cust")
    with pytest.raises(SqlError, match="duplicate output column 's'"):
        spec_of(shop, "SELECT sum(c_id) AS s, sum(c_nation) AS s FROM cust")
    with pytest.raises(SqlError, match="duplicate output column"):
        spec_of(shop, "SELECT c_nation, count(*) AS c_nation FROM cust "
                      "GROUP BY c_nation")


def test_underscored_number_literal_rejected(shop):
    with pytest.raises(SqlError, match="malformed number"):
        spec_of(shop, "SELECT * FROM cust WHERE c_id < 120_000")


def test_group_key_must_be_grouped(shop):
    with pytest.raises(SqlError, match="must appear in GROUP BY"):
        spec_of(shop, "SELECT c_name, count(*) AS n FROM cust "
                      "GROUP BY c_nation")


# -- ORDER BY / LIMIT / hints ------------------------------------------------

def test_order_by_and_limit(shop):
    spec = spec_of(shop, """
        SELECT c_nation, count(*) AS n FROM cust GROUP BY c_nation
        ORDER BY n DESC, c_nation LIMIT 3
    """)
    assert [(o.column, o.ascending) for o in spec.order_by] == [
        ("n", False), ("c_nation", True),
    ]
    assert spec.limit == 3


def test_order_by_unknown_output_column(shop):
    with pytest.raises(SqlError, match="not in the query output"):
        spec_of(shop, "SELECT c_nation, count(*) AS n FROM cust "
                      "GROUP BY c_nation ORDER BY c_name")


def test_order_by_validates_table_qualifier(shop):
    spec = spec_of(shop, "SELECT c_id FROM cust ORDER BY cust.c_id")
    assert spec.order_by[0].column == "c_id"
    with pytest.raises(SqlError, match="unknown table 'bogus'"):
        spec_of(shop, "SELECT c_id FROM cust ORDER BY bogus.c_id")


def test_hints_map_to_planner_options(shop):
    bound = compile_statement(shop, """
        SELECT /*+ force_path(full), no_inlj, smooth */ * FROM cust
    """)
    options = bound.planner_options()
    assert options.force_path == "full"
    assert options.enable_inlj is False
    assert options.enable_smooth is True


def test_hints_layer_over_base_options(shop):
    from repro.optimizer.planner import PlannerOptions
    bound = compile_statement(
        shop, "SELECT /*+ no_inlj */ * FROM cust"
    )
    base = PlannerOptions(enable_smooth=True)
    merged = bound.planner_options(base)
    assert merged.enable_smooth is True      # kept from base
    assert merged.enable_inlj is False       # set by hint
    assert base.enable_inlj is True          # base not mutated


def test_sql_results_match_fluent_on_join_aggregate(shop):
    sql = shop.connect().run("""
        SELECT c_nation, count(*) AS n, sum(o_total) AS revenue
        FROM cust JOIN ord ON c_id = o_cust
        WHERE o_total >= 10
        GROUP BY c_nation
        ORDER BY c_nation
    """)
    fluent = (
        shop.query("cust")
        .where(Comparison("o_total", CompareOp.GE, 10))
        .join("ord", on=("c_id", "o_cust"))
        .group_by("c_nation")
        .aggregate(AggSpec("count", "n"),
                   AggSpec("sum", "revenue", column="o_total"))
        .order_by("c_nation")
        .run()
    )
    assert sql.rows == fluent.rows
    assert sql.io_ms == fluent.io_ms and sql.cpu_ms == fluent.cpu_ms
    assert sql.disk.requests == fluent.disk.requests

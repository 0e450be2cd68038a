"""NULL in a WHERE, witnessed by stdlib sqlite3.

A base table whose ``b`` column holds NULL (an object column in the
heap image) is queried through every forced access path: each one must
keep exactly the rows sqlite3 keeps, which is SQL's three-valued logic —
a comparison that reads a NULL is UNKNOWN, ``NOT`` keeps UNKNOWN, and the
WHERE keeps only TRUE rows.  An index on the NULL-bearing column holds
no NULL key, so a NULL matches no key range on any path.  The same rules
hold above a LEFT JOIN's NULL pads and inside a ``CASE``, after
``analyze()`` collected statistics over the NULL-bearing column, and for
bind parameters: a NULL bound into a
predicate is refused by name, while a NULL in arithmetic (inside
``sum()`` / ``avg()`` too) stays a value.
"""

import sqlite3

import pytest

from repro.database import Database
from repro.errors import PlanningError, SqlError
from repro.optimizer.planner import FORCEABLE_PATHS
from repro.storage.types import Schema

NT_ROWS = [(i, None if i % 3 == 0 else i % 7) for i in range(60)]
NU_ROWS = [(i, i % 5) for i in range(0, 60, 2)]
ORD_ROWS = [(i, (i * 7) % 170, i % 90) for i in range(400)]

#: WHERE conditions over ``nt`` alone; each runs under ``a >= 0 AND (..)``
#: so that every access path has a key range on the indexed ``a``.
BASE_CONDITIONS = [
    "b > 3",
    "b <> 3",
    "NOT b = 3",
    "NOT (b IN (1, 2))",
    "b < a",
    "NOT (b = 3 OR a < 5)",
    "b BETWEEN 2 AND 4",
    "NOT (b BETWEEN 2 AND 4)",
    "b >= 2 AND b < 5",
    "b IN (1, 2) OR a > 50",
]

#: Full statements whose NULLs come from a LEFT JOIN's pads or meet CASE.
STATEMENTS = [
    "SELECT a, b, u_c FROM nt LEFT JOIN nu ON a = u_a WHERE a >= 0 "
    "AND u_c > 1",
    "SELECT a, b, u_c FROM nt LEFT JOIN nu ON a = u_a WHERE a >= 0 "
    "AND NOT u_c = 2",
    "SELECT a, b, u_c FROM nt LEFT JOIN nu ON a = u_a WHERE a >= 0 "
    "AND (b <> 3 OR u_c < 2)",
    "SELECT a, sum(CASE WHEN b > 3 THEN 1.0 ELSE 0.0 END) AS k FROM nt "
    "WHERE a >= 0 GROUP BY a",
    "SELECT a, sum(CASE WHEN NOT b > 3 THEN 1.0 ELSE 0.0 END) AS k "
    "FROM nt WHERE a >= 0 GROUP BY a",
    "SELECT a, sum(CASE WHEN NOT (b = 3 OR a < 5) THEN b ELSE -1 END) AS k "
    "FROM nt WHERE a >= 0 GROUP BY a",
    "SELECT u_c, sum(CASE WHEN b <> 3 THEN 1.0 ELSE 0.0 END) AS k "
    "FROM nt LEFT JOIN nu ON a = u_a WHERE a >= 0 GROUP BY u_c",
]


def _database(analyze):
    db = Database()
    db.load_table("nt", Schema.of_ints(["a", "b"]), NT_ROWS)
    db.load_table("nu", Schema.of_ints(["u_a", "u_c"]), NU_ROWS)
    db.create_index("nt", "a")
    if analyze:
        db.analyze()
    return db


@pytest.fixture(scope="module", params=[False, True],
                ids=["no-stats", "analyzed"])
def nt(request):
    return _database(request.param)


@pytest.fixture(scope="module")
def witness():
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE nt (a, b)")
    conn.execute("CREATE TABLE nu (u_a, u_c)")
    conn.executemany("INSERT INTO nt VALUES (?, ?)", NT_ROWS)
    conn.executemany("INSERT INTO nu VALUES (?, ?)", NU_ROWS)
    return conn


def _sorted(rows):
    return sorted(rows, key=repr)


@pytest.mark.parametrize("path", FORCEABLE_PATHS)
@pytest.mark.parametrize("condition", BASE_CONDITIONS)
def test_where_over_a_null_bearing_table_is_three_valued(nt, witness,
                                                         condition, path):
    sql = f"SELECT a, b FROM nt WHERE a >= 0 AND ({condition})"
    want = witness.execute(sql).fetchall()
    hinted = sql.replace("SELECT", f"SELECT /*+ force_path({path}) */", 1)
    got = nt.connect().run(hinted).rows
    assert _sorted(got) == _sorted(want)


@pytest.mark.parametrize("path", FORCEABLE_PATHS)
@pytest.mark.parametrize("sql", STATEMENTS)
def test_left_join_pads_and_case_conditions_are_three_valued(nt, witness,
                                                            sql, path):
    want = witness.execute(sql).fetchall()
    hinted = sql.replace("SELECT", f"SELECT /*+ force_path({path}) */", 1)
    got = nt.connect().run(hinted).rows
    assert _sorted(got) == _sorted(want)


#: Conditions with a key range on the NULL-bearing ``b``.
B_RANGES = [
    "b > 3",
    "b BETWEEN 2 AND 4",
    "b >= 2 AND b < 5",
    "b = 3",
    "b < 3 AND a > 10",
    "b <= 6 AND NOT b = 4",
]


@pytest.fixture(scope="module")
def nt_b():
    """``nt`` with an index on the NULL-bearing ``b`` (and none on ``a``)."""
    db = Database()
    db.load_table("nt", Schema.of_ints(["a", "b"]), NT_ROWS)
    index = db.create_index("nt", "b")
    assert len(index) == sum(b is not None for _a, b in NT_ROWS)
    return db


@pytest.mark.parametrize("path", ["index", "sort", "smooth"])
@pytest.mark.parametrize("condition", B_RANGES)
def test_an_index_on_a_null_bearing_column_matches_no_null(nt_b, witness,
                                                           condition, path):
    sql = f"SELECT a, b FROM nt WHERE {condition}"
    want = witness.execute(sql).fetchall()
    conn = nt_b.connect()
    full = conn.run(sql.replace("SELECT", "SELECT /*+ force_path(full) */",
                                1)).rows
    got = conn.run(sql.replace("SELECT", f"SELECT /*+ force_path({path}) */",
                               1)).rows
    assert _sorted(got) == _sorted(full) == _sorted(want)


def test_a_null_key_after_the_build_is_not_indexed(witness):
    db = Database()
    db.load_table("nt", Schema.of_ints(["a", "b"]), NT_ROWS[:30])
    index = db.create_index("nt", "b")
    db.append_rows("nt", NT_ROWS[30:])
    assert len(index) == sum(b is not None for _a, b in NT_ROWS)
    sql = "SELECT a, b FROM nt WHERE b >= 2"
    got = db.connect().run(sql.replace(
        "SELECT", "SELECT /*+ force_path(index) */", 1)).rows
    assert _sorted(got) == _sorted(witness.execute(sql).fetchall())


@pytest.mark.parametrize("path", ["index", "sort", "smooth"])
def test_an_order_only_sweep_never_uses_an_index_missing_null_rows(nt_b,
                                                                   path):
    """With no range on ``b``, an index on it would skip the NULL rows."""
    with pytest.raises(PlanningError):
        nt_b.connect().run(f"SELECT /*+ force_path({path}) */ a, b FROM nt "
                           "WHERE a >= 0 ORDER BY b")


def test_analyze_describes_the_non_null_values():
    db = _database(analyze=True)
    stats = db.catalog.column_stats("nt", "b")
    present = [b for _a, b in NT_ROWS if b is not None]
    assert stats.row_count == len(NT_ROWS)
    assert (stats.min_value, stats.max_value) == (min(present), max(present))
    assert stats.ndv == len(set(present))
    assert sum(stats.histogram.counts) == len(present)


@pytest.fixture(scope="module")
def orders():
    db = Database()
    db.load_table("ord", Schema.of_ints(["o_id", "o_cust", "o_total"]),
                  ORD_ROWS)
    db.create_index("ord", "o_cust")
    db.analyze()
    return db


@pytest.mark.parametrize("sql,params", [
    ("SELECT o_id FROM ord WHERE o_cust >= :lo", {"lo": None}),
    ("SELECT o_id FROM ord WHERE o_total <> :lo", {"lo": None}),
    ("SELECT o_id FROM ord WHERE NOT (o_total IN (:lo, 3))", {"lo": None}),
    ("SELECT o_id FROM ord WHERE o_cust BETWEEN 5 AND :lo", {"lo": None}),
])
def test_a_null_parameter_in_a_predicate_is_refused_by_name(orders, sql,
                                                            params):
    conn = orders.connect()
    with pytest.raises(SqlError, match=":lo is NULL"):
        conn.run(sql, params)
    statement = conn.prepare(sql)
    with pytest.raises(SqlError, match=":lo is NULL"):
        statement.run(params)
    # The statement and the session stay usable.
    assert statement.run({"lo": 30}).rows
    assert conn.run("SELECT count(*) AS n FROM ord").rows == [(400,)]


def test_a_null_parameter_in_arithmetic_is_a_null_value(orders):
    rows = orders.connect().run(
        "SELECT o_cust, max(o_total + :k) AS s, count(o_total + :k) AS n "
        "FROM ord WHERE o_cust < :hi GROUP BY o_cust",
        {"k": None, "hi": 3}).rows
    assert rows and all(s is None and n == 0 for _cust, s, n in rows)


@pytest.fixture(scope="module")
def ord_witness():
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE ord (o_id, o_cust, o_total)")
    conn.executemany("INSERT INTO ord VALUES (?, ?, ?)", ORD_ROWS)
    return conn


SUM_AVG = ("SELECT o_cust, {sum}(o_total + :k) AS s, avg(o_total + :k) AS m "
           "FROM ord WHERE o_cust < :hi GROUP BY o_cust")


@pytest.mark.parametrize("k", [None, 2, 0.5])
def test_a_null_parameter_inside_sum_and_avg_is_a_null_value(
        orders, ord_witness, k):
    """sum()/avg() of an expression over a NULL parameter: every value is
    NULL, so avg is NULL and sum is the engine's empty sum, 0.0 — sqlite's
    ``total`` (its ``sum`` would be NULL; the engine's sum starts from
    0.0 everywhere, see ``tests/test_property_values.py``)."""
    params = {"k": k, "hi": 3}
    conn = orders.connect()
    got = conn.run(SUM_AVG.format(sum="sum"), params).rows
    want = ord_witness.execute(SUM_AVG.format(sum="total"), params).fetchall()
    assert _sorted(got) == _sorted(want) and len(got) == 3
    if k is None:
        assert all(s == 0.0 and m is None for _cust, s, m in got)
        assert ord_witness.execute(
            SUM_AVG.format(sum="sum"), params).fetchall()[0][1] is None
    # Prepared once, the statement takes a NULL and then a number.
    statement = conn.prepare(SUM_AVG.format(sum="sum"))
    assert statement.run(params).rows == got


@pytest.mark.parametrize("k", ["x", True, b"1"])
def test_a_non_numeric_parameter_inside_sum_is_still_refused(orders, k):
    with pytest.raises(SqlError, match=":k is an argument of sum"):
        orders.connect().run(SUM_AVG.format(sum="sum"), {"k": k, "hi": 3})

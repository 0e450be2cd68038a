"""Join operators: hash (all types) and index NLJ, NULL keys included."""

import sqlite3

import pytest

from repro.core.morph_join import MorphingIndexJoin
from repro.errors import PlanningError
from repro.exec.expressions import CompareOp, Comparison
from repro.exec.joins import HashJoin, IndexNestedLoopJoin
from repro.exec.scans import FullTableScan
from repro.exec.stats import measure
from repro.storage.disk import KINDS
from repro.storage.types import Schema


@pytest.fixture()
def join_db(db):
    left = db.load_table(
        "left", Schema.of_ints(["l_id", "l_key"]),
        [(i, i % 20) for i in range(200)],
    )
    right = db.load_table(
        "right", Schema.of_ints(["r_key", "r_val"]),
        [(k, k * 100) for k in range(15)],  # keys 15..19 unmatched
    )
    db.create_index("right", "r_key")
    return db, left, right


def expected_inner(left_rows, right_rows):
    out = []
    for lrow in left_rows:
        for rrow in right_rows:
            if lrow[1] == rrow[0]:
                out.append(lrow + rrow)
    return sorted(out)


def test_hash_join_inner(join_db):
    db, left, right = join_db
    join = HashJoin(FullTableScan(left), FullTableScan(right),
                    ["l_key"], ["r_key"])
    rows = sorted(measure(db, join).rows)
    left_rows = [tuple(r) for r in left.heap.image()[:].to_rows()]
    right_rows = [tuple(r) for r in right.heap.image()[:].to_rows()]
    assert rows == expected_inner(left_rows, right_rows)


def test_hash_join_left_pads_with_none(join_db):
    db, left, right = join_db
    join = HashJoin(FullTableScan(left), FullTableScan(right),
                    ["l_key"], ["r_key"], join_type="left")
    rows = measure(db, join).rows
    assert len(rows) == 200
    unmatched = [r for r in rows if r[2] is None]
    assert len(unmatched) == 200 // 20 * 5  # keys 15..19


def test_hash_join_semi(join_db):
    db, left, right = join_db
    join = HashJoin(FullTableScan(left), FullTableScan(right),
                    ["l_key"], ["r_key"], join_type="semi")
    rows = measure(db, join).rows
    assert len(rows) == 150
    assert all(len(r) == 2 for r in rows)  # left schema only
    assert all(r[1] < 15 for r in rows)


def test_hash_join_anti(join_db):
    db, left, right = join_db
    join = HashJoin(FullTableScan(left), FullTableScan(right),
                    ["l_key"], ["r_key"], join_type="anti")
    rows = measure(db, join).rows
    assert len(rows) == 50
    assert all(r[1] >= 15 for r in rows)


def test_hash_join_validations(join_db):
    _db, left, right = join_db
    with pytest.raises(PlanningError):
        HashJoin(FullTableScan(left), FullTableScan(right), [], [])
    with pytest.raises(PlanningError):
        HashJoin(FullTableScan(left), FullTableScan(right),
                 ["l_key"], ["r_key"], join_type="outer")
    with pytest.raises(PlanningError):  # duplicate output names
        HashJoin(FullTableScan(left), FullTableScan(left),
                 ["l_key"], ["l_key"])


@pytest.mark.parametrize("inner_access", ["classic", "smooth"])
def test_inlj_matches_hash(join_db, inner_access):
    db, left, right = join_db
    inlj = IndexNestedLoopJoin(
        FullTableScan(left), right, "r_key", "l_key",
        inner_access=inner_access,
    )
    hash_join = HashJoin(FullTableScan(left), FullTableScan(right),
                         ["l_key"], ["r_key"])
    assert sorted(measure(db, inlj).rows) == \
        sorted(measure(db, hash_join).rows)


def test_inlj_residual_on_joined_schema(join_db):
    db, left, right = join_db
    inlj = IndexNestedLoopJoin(
        FullTableScan(left), right, "r_key", "l_key",
        residual=Comparison("r_val", CompareOp.GE, 500),
    )
    rows = measure(db, inlj).rows
    assert rows and all(r[3] >= 500 for r in rows)


def test_inlj_smooth_handles_multimatch(db):
    # Many inner matches per key, spread over pages: the per-key morphing
    # case of Section IV-B.
    outer = db.load_table("o", Schema.of_ints(["ok"]), [(3,), (5,)])
    inner = db.load_table(
        "i", Schema.of_ints(["ik", "iv"]),
        [((i * 13) % 8, i) for i in range(4_000)],
    )
    db.create_index("i", "ik")
    classic = IndexNestedLoopJoin(FullTableScan(outer), inner, "ik", "ok",
                                  inner_access="classic")
    smooth = IndexNestedLoopJoin(FullTableScan(outer), inner, "ik", "ok",
                                 inner_access="smooth")
    classic_res = measure(db, classic)
    smooth_res = measure(db, smooth)
    assert sorted(classic_res.rows) == sorted(smooth_res.rows)
    # Per-key page dedup: smooth touches each inner page at most once per key.
    assert smooth_res.disk.pages_read <= classic_res.disk.pages_read


def test_inlj_invalid_access(join_db):
    _db, left, right = join_db
    with pytest.raises(PlanningError):
        IndexNestedLoopJoin(FullTableScan(left), right, "r_key", "l_key",
                            inner_access="magic")


def test_inlj_unmatched_outer_rows_dropped(join_db):
    db, left, right = join_db
    inlj = IndexNestedLoopJoin(FullTableScan(left), right, "r_key", "l_key")
    rows = measure(db, inlj).rows
    assert all(r[1] < 15 for r in rows)


# -- NULL keys -------------------------------------------------------------

L_ROWS = [(0, 1), (1, None), (2, 3)]
R2_ROWS = [(1, 10), (None, 20), (3, 30)]

#: SQL over ``l(l_id, l_key)`` and ``r2(s_key, s_val)``; SQLite is the
#: witness of what each returns.
NULL_KEY_STATEMENTS = {
    "inner": "SELECT l_id, s_val FROM l JOIN r2 ON l_key = s_key",
    "left": "SELECT l_id, s_val FROM l LEFT JOIN r2 ON l_key = s_key",
    "semi": "SELECT l_id FROM l WHERE EXISTS "
            "(SELECT s_key FROM r2 WHERE s_key = l_key)",
    "anti": "SELECT l_id FROM l WHERE NOT EXISTS "
            "(SELECT s_key FROM r2 WHERE s_key = l_key)",
}


@pytest.mark.parametrize("join_type", sorted(NULL_KEY_STATEMENTS))
def test_hash_join_null_key_matches_nothing_as_in_sqlite(db, join_type):
    """A key containing NULL matches nothing: inner and semi drop the
    row, left pads it, anti keeps it."""
    sql = NULL_KEY_STATEMENTS[join_type]
    db.load_table("l", Schema.of_ints(["l_id", "l_key"]), L_ROWS)
    db.load_table("r2", Schema.of_ints(["s_key", "s_val"]), R2_ROWS)
    cur = db.connect().execute(sql)
    got = cur.fetchall()
    assert f"HashJoin({join_type})" in cur.plan.render()
    witness = sqlite3.connect(":memory:")
    witness.execute("CREATE TABLE l (l_id INTEGER, l_key INTEGER)")
    witness.execute("CREATE TABLE r2 (s_key INTEGER, s_val INTEGER)")
    witness.executemany("INSERT INTO l VALUES (?, ?)", L_ROWS)
    witness.executemany("INSERT INTO r2 VALUES (?, ?)", R2_ROWS)
    assert sorted(got, key=repr) == \
        sorted(witness.execute(sql).fetchall(), key=repr)


def test_hash_join_two_column_key_with_a_null_matches_nothing(db):
    left = db.load_table("l", Schema.of_ints(["a", "b"]),
                         [(1, 1), (1, None), (None, None)])
    right = db.load_table("r", Schema.of_ints(["c", "d"]),
                          [(1, 1), (1, None), (None, None)])
    for join_type, want in (
            ("inner", [(1, 1, 1, 1)]),
            ("left", [(1, 1, 1, 1), (1, None, None, None),
                      (None, None, None, None)]),
            ("semi", [(1, 1)]),
            ("anti", [(1, None), (None, None)])):
        join = HashJoin(FullTableScan(left), FullTableScan(right),
                        ["a", "b"], ["c", "d"], join_type=join_type)
        assert measure(db, join).rows == want, join_type


@pytest.fixture()
def null_outer_db(db):
    """``l`` with a NULL outer key, probing ``r`` (2,000 rows, several
    pages) through its index."""
    db.load_table("l", Schema.of_ints(["l_id", "l_key"]), L_ROWS)
    db.load_table("r", Schema.of_ints(["r_key", "r_val"]),
                  [(k, k * 10) for k in range(2_000)])
    db.create_index("r", "r_key")
    return db


@pytest.mark.parametrize("join", ["classic", "smooth", "morphing"])
def test_null_outer_key_probes_nothing(null_outer_db, join):
    """A NULL outer key finds no inner row, reads no index entry and
    fetches no inner page: every charge is the two matching keys'."""
    db = null_outer_db
    outer = FullTableScan(db.table("l"))
    if join == "morphing":
        plan = MorphingIndexJoin(outer, db.table("r"), "r_key", "l_key")
    else:
        plan = IndexNestedLoopJoin(outer, db.table("r"), "r_key", "l_key",
                                   inner_access=join)
    result = measure(db, plan)
    assert result.rows == [(0, 1, 1, 10), (2, 3, 3, 30)]
    counts = dict(zip(KINDS, result.ledger.counts[1], strict=True))
    assert counts["index_entry"] == 2
    inner_pages = result.disk.pages_read - db.table("l").heap.num_pages
    assert inner_pages <= 2 + db.table("r").index_on("r_key").height
    if join == "morphing":
        assert plan.last_stats.pages_fetched == 1


def test_btree_null_point_probe_is_empty_and_free(null_outer_db):
    db = null_outer_db
    index = db.table("r").index_on("r_key")
    ctx = db.cold_run()
    assert list(index.lookup(ctx, None)) == []
    assert db.clock.total_ms == 0
    assert db.buffer.stats.hits == db.buffer.stats.misses == 0

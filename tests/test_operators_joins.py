"""Join operators: hash (all types), merge, NLJ, and index NLJ."""

import pytest

from repro.errors import PlanningError
from repro.exec.expressions import ColumnComparison, CompareOp, Comparison
from repro.exec.joins import (
    HashJoin,
    IndexNestedLoopJoin,
    MergeJoin,
    NestedLoopJoin,
)
from repro.exec.scans import FullTableScan
from repro.exec.sort import Sort
from repro.exec.stats import measure
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


def test_merge_join_matches_hash(join_db):
    db, left, right = join_db
    merge = MergeJoin(
        Sort(FullTableScan(left), ["l_key"]),
        Sort(FullTableScan(right), ["r_key"]),
        "l_key", "r_key",
    )
    hash_join = HashJoin(FullTableScan(left), FullTableScan(right),
                         ["l_key"], ["r_key"])
    assert sorted(measure(db, merge).rows) == \
        sorted(measure(db, hash_join).rows)


def test_merge_join_duplicate_groups(db):
    left = db.load_table("l", Schema.of_ints(["lk"]),
                         [(1,), (1,), (2,)])
    right = db.load_table("r", Schema.of_ints(["rk"]),
                          [(1,), (1,), (1,), (3,)])
    join = MergeJoin(FullTableScan(left), FullTableScan(right), "lk", "rk")
    rows = measure(db, join).rows
    assert len(rows) == 6  # 2 x 3 matches for key 1


def test_nested_loop_join_with_predicate(join_db):
    db, left, right = join_db
    join = NestedLoopJoin(
        FullTableScan(left), FullTableScan(right),
        predicate=ColumnComparison("l_key", CompareOp.EQ, "r_key"),
    )
    hash_join = HashJoin(FullTableScan(left), FullTableScan(right),
                         ["l_key"], ["r_key"])
    assert sorted(measure(db, join).rows) == \
        sorted(measure(db, hash_join).rows)


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

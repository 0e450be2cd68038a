"""Joins against a plain nested loop: every join type, row for row, in order.

Keys repeat on both sides and may be NULL; they are one integer column,
two integer columns, or a CHAR column.  Small pages spread one key's inner
rows over several pages, and two-page extents give the probe side several
batches, so the smooth INLJ's per-key page runs and the batch edges are
both exercised.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import EngineConfig
from repro.core.morph_join import MorphingIndexJoin
from repro.database import Database
from repro.exec.expressions import CompareOp, Comparison, TruePredicate
from repro.exec.joins import HashJoin, IndexNestedLoopJoin
from repro.exec.scans import FullTableScan
from repro.exec.stats import measure
from repro.storage.types import Column, ColumnType, Schema

from kleene import where

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LEFT = Schema([Column("lid"), Column("k1"), Column("k2"),
               Column("s", ColumnType.CHAR, 2)])
RIGHT = Schema([Column("rid"), Column("rk1"), Column("rk2"),
                Column("rs", ColumnType.CHAR, 2)])
#: The inner side of an index join: its key columns hold no NULL.
INNER = Schema([Column("ik"), Column("is_", ColumnType.CHAR, 2),
                Column("iv")])

#: left key columns -> right key columns (positions in LEFT / RIGHT).
KEYS = {
    "int": ([1], [1]),
    "two-int": ([1, 2], [1, 2]),
    "char": ([3], [3]),
}

small_int = st.integers(0, 3)
char = st.sampled_from(["a", "b", "ab"])
#: ``(k1, k2, s)`` rows of either hash-join side, any key NULL.
side_rows = st.lists(st.tuples(st.none() | small_int, st.none() | small_int,
                               st.none() | char), max_size=30)
inner_rows = st.lists(st.tuples(small_int, char, st.integers(0, 9)),
                      max_size=40)


def _database():
    return Database(config=EngineConfig(page_size=768, extent_pages=2))


def _numbered(rows):
    return [(i,) + row for i, row in enumerate(rows)]


def _matches(lrow, rrow, lpos, rpos):
    lkey = tuple(lrow[p] for p in lpos)
    rkey = tuple(rrow[p] for p in rpos)
    return None not in lkey and lkey == rkey


def nested_loop(left, right, lpos, rpos, join_type, pad_width):
    """The reference: for each left row, the right rows in order."""
    out = []
    for lrow in left:
        found = [rrow for rrow in right if _matches(lrow, rrow, lpos, rpos)]
        if join_type == "semi":
            out += [lrow] if found else []
        elif join_type == "anti":
            out += [] if found else [lrow]
        else:
            out += [lrow + rrow for rrow in found]
            if join_type == "left" and not found:
                out.append(lrow + (None,) * pad_width)
    return out


@SETTINGS
@given(left=side_rows, right=side_rows)
def test_hash_join_is_a_nested_loop(left, right):
    db = _database()
    left, right = _numbered(left), _numbered(right)
    lt = db.load_table("l", LEFT, left)
    rt = db.load_table("r", RIGHT, right)
    for name, (lpos, rpos) in KEYS.items():
        for join_type in ("inner", "left", "semi", "anti"):
            join = HashJoin(
                FullTableScan(lt), FullTableScan(rt),
                [LEFT.column_names[p] for p in lpos],
                [RIGHT.column_names[p] for p in rpos], join_type=join_type)
            want = nested_loop(left, right, lpos, rpos, join_type,
                               len(RIGHT))
            assert measure(db, join).rows == want, (name, join_type)


@SETTINGS
@given(outer=side_rows, inner=inner_rows, threshold=st.integers(0, 10))
def test_index_joins_are_a_nested_loop(outer, inner, threshold):
    """Classic and smooth INLJ emit the nested loop's rows in its order
    (an outer row's matches in heap order); the morphing join emits the
    same rows.  A NULL outer key finds nothing."""
    db = _database()
    outer = _numbered(outer)
    ot = db.load_table("o", LEFT, outer)
    it = db.load_table("i", INNER, inner)
    db.create_index("i", "ik")
    db.create_index("i", "is_")
    for outer_key, inner_key, lpos, rpos in (("k1", "ik", [1], [0]),
                                             ("s", "is_", [3], [1])):
        for residual in (TruePredicate(),
                         Comparison("iv", CompareOp.GE, threshold)):
            want = where(residual, Schema(LEFT.columns + INNER.columns),
                         nested_loop(outer, inner, lpos, rpos, "inner", 0))
            for access in ("classic", "smooth"):
                join = IndexNestedLoopJoin(
                    FullTableScan(ot), it, inner_key, outer_key,
                    residual=residual, inner_access=access)
                assert measure(db, join).rows == want, (outer_key, access)
            morph = MorphingIndexJoin(FullTableScan(ot), it, inner_key,
                                      outer_key, residual=residual)
            assert sorted(measure(db, morph).rows, key=repr) == \
                sorted(want, key=repr), outer_key

"""Property-based tests of executor operators against Python ground truth."""

from collections import defaultdict

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.database import Database
from repro.exec.aggregates import AggSpec, HashAggregate
from repro.exec.expressions import KeyRange
from repro.exec.joins import HashJoin
from repro.exec.scans import FullTableScan
from repro.exec.sort import Sort
from repro.exec.stats import measure
from repro.storage.types import Schema

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

pairs = st.lists(
    st.tuples(st.integers(0, 20), st.integers(-50, 50)),
    min_size=0, max_size=200,
)


def load(db, name, columns, rows):
    return db.load_table(name, Schema.of_ints(columns), rows)


@SETTINGS
@given(rows=pairs)
def test_sort_matches_python_sorted(rows):
    db = Database()
    table = load(db, "t", ["k", "v"], rows)
    got = measure(db, Sort(FullTableScan(table), [("k", True),
                                                  ("v", False)])).rows
    expected = sorted(rows, key=lambda r: (r[0], -r[1]))
    assert got == expected


@SETTINGS
@given(left=pairs, right=pairs)
def test_hash_join_matches_python(left, right):
    db = Database()
    lt = load(db, "l", ["lk", "lv"], left)
    rt = load(db, "r", ["rk", "rv"], right)
    got = sorted(measure(db, HashJoin(
        FullTableScan(lt), FullTableScan(rt), ["lk"], ["rk"])).rows)
    expected = sorted(
        lr + rr for lr in left for rr in right if lr[0] == rr[0]
    )
    assert got == expected


@SETTINGS
@given(left=pairs, right=pairs)
def test_hash_join_keeps_nested_loop_order(left, right):
    """Left order first, then the right child's order: the rows of a
    plain nested loop, in its order."""
    db = Database()
    lt = load(db, "l", ["lk", "lv"], left)
    rt = load(db, "r", ["rk", "rv"], right)
    got = measure(db, HashJoin(
        FullTableScan(lt), FullTableScan(rt), ["lk"], ["rk"])).rows
    assert got == [lr + rr for lr in left for rr in right if lr[0] == rr[0]]


@SETTINGS
@given(left=pairs, right=pairs)
def test_semi_plus_anti_partition_left(left, right):
    """Semi and anti joins partition the left input exactly."""
    db = Database()
    lt = load(db, "l", ["lk", "lv"], left)
    rt = load(db, "r", ["rk", "rv"], right)
    semi = measure(db, HashJoin(FullTableScan(lt), FullTableScan(rt),
                                ["lk"], ["rk"], join_type="semi")).rows
    anti = measure(db, HashJoin(FullTableScan(lt), FullTableScan(rt),
                                ["lk"], ["rk"], join_type="anti")).rows
    assert sorted(semi + anti) == sorted(left)
    right_keys = {r[0] for r in right}
    assert all(row[0] in right_keys for row in semi)
    assert all(row[0] not in right_keys for row in anti)


@SETTINGS
@given(rows=pairs)
def test_aggregate_matches_python(rows):
    db = Database()
    table = load(db, "t", ["k", "v"], rows)
    agg = HashAggregate(FullTableScan(table), ["k"], [
        AggSpec("sum", "s", column="v"),
        AggSpec("count", "n"),
        AggSpec("min", "lo", column="v"),
        AggSpec("max", "hi", column="v"),
    ])
    got = {r[0]: r[1:] for r in measure(db, agg).rows}
    expected = defaultdict(list)
    for k, v in rows:
        expected[k].append(v)
    assert set(got) == set(expected)
    for k, values in expected.items():
        s, n, lo, hi = got[k]
        assert s == sum(values)
        assert n == len(values)
        assert lo == min(values) and hi == max(values)


@SETTINGS
@given(
    lo1=st.integers(-10, 10), hi1=st.integers(-10, 10),
    lo2=st.integers(-10, 10), hi2=st.integers(-10, 10),
    probe=st.integers(-12, 12),
)
def test_key_range_intersection_property(lo1, hi1, lo2, hi2, probe):
    """x ∈ (A ∩ B)  ⇔  x ∈ A and x ∈ B."""
    a = KeyRange(lo1, hi1)
    b = KeyRange(lo2, hi2)
    merged = a.intersect(b)
    assert merged.contains(probe) == (a.contains(probe) and b.contains(probe))

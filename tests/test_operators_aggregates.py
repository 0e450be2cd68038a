"""Hash aggregation: grouping, functions, NULL handling, scalar form."""

import pytest

from repro.errors import PlanningError
from repro.exec.aggregates import AggSpec, HashAggregate
from repro.exec.misc import MapProject
from repro.exec.scans import FullTableScan
from repro.exec.stats import measure
from repro.exec.values import arith, column, compute, constant
from repro.storage.types import Column, ColumnType, Schema


@pytest.fixture()
def agg_db(db):
    table = db.load_table(
        "t", Schema.of_ints(["g", "v"]),
        [(i % 3, i) for i in range(12)],  # groups 0,1,2 with 4 rows each
    )
    return db, FullTableScan(table)


def test_group_by_sum_count(agg_db):
    db, scan = agg_db
    agg = HashAggregate(scan, ["g"], [
        AggSpec("sum", "total", column="v"),
        AggSpec("count", "n"),
    ])
    rows = {r[0]: (r[1], r[2]) for r in measure(db, agg).rows}
    assert rows[0] == (0 + 3 + 6 + 9, 4)
    assert rows[1] == (1 + 4 + 7 + 10, 4)
    assert rows[2] == (2 + 5 + 8 + 11, 4)


def test_min_max_avg(agg_db):
    db, scan = agg_db
    agg = HashAggregate(scan, ["g"], [
        AggSpec("min", "lo", column="v"),
        AggSpec("max", "hi", column="v"),
        AggSpec("avg", "mean", column="v"),
    ])
    rows = {r[0]: r[1:] for r in measure(db, agg).rows}
    assert rows[0] == (0, 9, 4.5)


def test_value_callable(agg_db):
    db, scan = agg_db
    agg = HashAggregate(scan, [], [
        AggSpec("sum", "double",
                value=compute(arith("*", column(1), constant(2)))),
    ])
    assert measure(db, agg).rows == [(2 * sum(range(12)),)]


def test_scalar_aggregate_on_empty_input(db):
    table = db.load_table("e", Schema.of_ints(["a"]), [])
    agg = HashAggregate(FullTableScan(table), [], [
        AggSpec("count", "n"),
        AggSpec("sum", "s", column="a"),
        AggSpec("min", "lo", column="a"),
    ])
    rows = measure(db, agg).rows
    assert len(rows) == 1
    n, s, lo = rows[0]
    assert n == 0 and s == 0.0 and lo is None


def test_group_by_empty_input_yields_no_groups(db):
    table = db.load_table("e", Schema.of_ints(["a"]), [])
    agg = HashAggregate(FullTableScan(table), ["a"],
                        [AggSpec("count", "n")])
    assert measure(db, agg).rows == []


def test_nulls_skipped(db):
    table = db.load_table("t", Schema.of_ints(["a"]),
                          [(1,), (2,), (3,), (4,)])
    nullify = MapProject(
        FullTableScan(table),
        Schema([Column("a", ColumnType.INT)]),
        lambda chunk: [[None if v % 2 == 0 else v
                        for v in chunk.column_values(0)]],
    )
    agg = HashAggregate(nullify, [], [
        AggSpec("count", "n", column="a"),
        AggSpec("sum", "s", column="a"),
    ])
    n, s = measure(db, agg).rows[0]
    assert n == 2  # SQL count(col) skips NULLs
    assert s == 4.0


def test_count_star_counts_nulls(db):
    table = db.load_table("t", Schema.of_ints(["a"]), [(1,), (2,)])
    nullify = MapProject(
        FullTableScan(table),
        Schema([Column("a", ColumnType.INT)]),
        lambda chunk: [[None] * len(chunk)],
    )
    agg = HashAggregate(nullify, [], [AggSpec("count", "n")])
    assert measure(db, agg).rows[0] == (2,)


def test_output_schema(agg_db):
    _db, scan = agg_db
    agg = HashAggregate(scan, ["g"], [AggSpec("sum", "total", column="v"),
                                      AggSpec("count", "n")])
    assert agg.schema.column_names == ("g", "total", "n")


def test_invalid_specs(agg_db):
    _db, scan = agg_db
    with pytest.raises(PlanningError):
        AggSpec("median", "m", column="v")
    with pytest.raises(PlanningError):
        AggSpec("sum", "s")  # sum needs a column or value
    with pytest.raises(PlanningError):
        HashAggregate(scan, [], [])

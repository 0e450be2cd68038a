"""Filter, Project, MapProject, Rename, Limit, Materialize, Sort."""

import random

import pytest

from repro.errors import ExecutionError, PlanningError, StorageError
from repro.exec.expressions import (
    And,
    Between,
    Comparison,
    CompareOp,
    InList,
    Not,
    Or,
)
from repro.exec.joins import HashJoin, IndexNestedLoopJoin
from repro.exec.misc import Filter, Limit, MapProject, Materialize, Project, Rename
from repro.exec.scans import FullTableScan
from repro.exec.sort import Sort
from repro.exec.stats import measure
from repro.exec.values import arith, column, compute_all
from repro.exec.iterator import explain
from repro.storage.types import Column, ColumnType, Schema


@pytest.fixture()
def base(db):
    table = db.load_table(
        "t", Schema.of_ints(["a", "b"]),
        [(i, (7 * i) % 10) for i in range(100)],
    )
    return db, FullTableScan(table)


def test_filter(base):
    db, scan = base
    rows = measure(db, Filter(scan, Comparison("b", CompareOp.EQ, 3))).rows
    assert rows and all(r[1] == 3 for r in rows)


def test_project_subset_and_schema(base):
    db, scan = base
    proj = Project(scan, ["b"])
    assert proj.schema.column_names == ("b",)
    rows = measure(db, proj).rows
    assert all(len(r) == 1 for r in rows)


def test_project_reorders(base):
    db, scan = base
    proj = Project(scan, ["b", "a"])
    first = measure(db, proj).rows[0]
    assert first == ((7 * 0) % 10, 0)


def test_project_row_list_batches(base):
    """A child whose batches are built from row lists (``from_rows``, as
    a per-tuple producer's are): a one-column projection still yields
    1-tuples, and nothing charges."""
    from repro.exec.iterator import Chunk, Operator

    db, scan = base

    class FromRows(Operator):
        schema = scan.schema

        def batches(self, ctx):
            yield Chunk.from_rows(self.schema, [(1, 2), (3, 4)])
            yield Chunk.from_rows(self.schema, [(5, 6)])

    ctx = db.cold_run()
    assert [b.to_rows() for b in Project(FromRows(), ["b", "a"]).batches(
        ctx)] == [[(2, 1), (4, 3)], [(6, 5)]]
    assert [b.to_rows() for b in Project(FromRows(), ["b"]).batches(
        ctx)] == [[(2,), (4,)], [(6,)]]
    assert (ctx.clock.io_ms, ctx.clock.cpu_ms) == (0.0, 0.0)


def test_project_requires_columns(base):
    _db, scan = base
    with pytest.raises(PlanningError):
        Project(scan, [])
    with pytest.raises(StorageError):
        Project(scan, ["zz"])


def test_map_project(base):
    db, scan = base
    out = Schema([Column("total", ColumnType.INT)])
    mp = MapProject(scan, out, compute_all([arith("+", column(0), column(1))]))
    rows = measure(db, mp).rows
    assert rows[3] == (3 + (21 % 10),)


def test_map_project_checks_arity_and_length_per_batch(base):
    db, scan = base
    out = Schema([Column("a", ColumnType.INT), Column("b", ColumnType.INT)])
    narrow = MapProject(scan, out, lambda chunk: [chunk.data_column(0)])
    with pytest.raises(ExecutionError, match="2 columns"):
        measure(db, narrow)
    short = MapProject(scan, Schema([Column("a", ColumnType.INT)]),
                       lambda chunk: [chunk.column_values(0)[1:]])
    with pytest.raises(ExecutionError, match="-row batch"):
        measure(db, short)


def test_rename(base):
    db, scan = base
    renamed = Rename(scan, {"a": "x"})
    assert renamed.schema.column_names == ("x", "b")
    assert measure(db, renamed).rows[0] == (0, 0)


def test_limit(base):
    db, scan = base
    assert len(measure(db, Limit(scan, 7)).rows) == 7
    assert measure(db, Limit(scan, 0)).rows == []
    with pytest.raises(PlanningError):
        Limit(scan, -1)


def test_limit_larger_than_input(base):
    db, scan = base
    assert len(measure(db, Limit(scan, 1000)).rows) == 100


def test_materialize_replays_without_io(base):
    db, scan = base
    mat = Materialize(scan)
    ctx = db.cold_run()
    first = list(mat.rows(ctx))
    io_after_first = db.clock.io_ms
    second = list(mat.rows(ctx))
    assert first == second
    assert db.clock.io_ms == io_after_first  # replay is I/O-free
    mat.invalidate()
    third = list(mat.rows(ctx))
    assert third == first


def test_sort_single_key(base):
    db, scan = base
    rows = measure(db, Sort(scan, ["b"])).rows
    assert [r[1] for r in rows] == sorted(r[1] for r in rows)


def test_sort_descending(base):
    db, scan = base
    rows = measure(db, Sort(scan, [("b", False)])).rows
    values = [r[1] for r in rows]
    assert values == sorted(values, reverse=True)


def test_sort_multi_key_stable(base):
    db, scan = base
    rows = measure(db, Sort(scan, [("b", True), ("a", False)])).rows
    for r1, r2 in zip(rows, rows[1:], strict=False):
        assert (r1[1], -r1[0]) <= (r2[1], -r2[0])


def test_sort_requires_keys(base):
    _db, scan = base
    with pytest.raises(PlanningError):
        Sort(scan, [])


def test_sort_spills_when_exceeding_work_mem():
    from repro.config import EngineConfig
    from repro.database import Database
    db2 = Database(config=EngineConfig(work_mem_pages=1))
    table = db2.load_table("t", Schema.of_ints(["a"]),
                           [(i,) for i in range(5_000)])
    result = measure(db2, Sort(FullTableScan(table), ["a"]))
    data_pages = table.num_pages
    # Spill charges 2x data pages of sequential I/O beyond the scan.
    assert result.disk.pages_read > data_pages


def test_explain_renders_tree(base):
    _db, scan = base
    plan = Limit(Sort(Filter(scan, Comparison("b", CompareOp.EQ, 1)),
                      ["a"]), 5)
    text = explain(plan)
    assert "Limit(5)" in text
    assert "Sort(a)" in text
    assert "FullTableScan(t)" in text


# -- Filter over row-list batches ------------------------------------------


@pytest.fixture()
def part_items():
    """A Q19-shaped pair: ``part`` (with a CHAR column) probed through an
    index on ``item.l_partkey``; ``l_discount`` holds NULLs.  Two-page
    extents give the join several outer batches."""
    from repro.config import EngineConfig
    from repro.database import Database
    db = Database(config=EngineConfig(extent_pages=2))
    rng = random.Random(19)
    containers = ("SM CASE", "SM BOX", "MED BAG", "MED PKG", "LG CASE",
                  "LG BOX")
    part = db.load_table(
        "part",
        Schema([Column("p_partkey"), Column("p_brand"), Column("p_size"),
                Column("p_container", ColumnType.CHAR, 10)]),
        [(i, rng.randrange(5), rng.randrange(1, 16), rng.choice(containers))
         for i in range(2_500)],
    )
    item = db.load_table(
        "item", Schema.of_ints(["l_id", "l_partkey", "l_quantity",
                                "l_discount"]),
        [(j, rng.randrange(2_500), rng.randrange(1, 51),
          None if j % 7 == 0 else rng.randrange(11))
         for j in range(10_000)],
    )
    db.create_index("item", "l_partkey")
    return db, part, item


def _q19_branch(brand, containers, qty_lo, size_hi):
    return And([Comparison("p_brand", CompareOp.EQ, brand),
                InList("p_container", containers),
                Between("l_quantity", qty_lo, qty_lo + 10, True, True),
                Between("p_size", 1, size_hi, True, True)])


#: name -> (predicate, the same condition written out by hand).
ROW_LIST_FILTERS = {
    "q19": (
        Or([_q19_branch(1, ("SM CASE", "SM BOX"), 1, 5),
            _q19_branch(2, ("MED BAG", "MED PKG"), 10, 10),
            _q19_branch(3, ("LG CASE", "LG BOX"), 20, 15)]),
        lambda r: any(
            r[1] == b and r[3] in c and lo <= r[6] <= lo + 10
            and 1 <= r[2] <= hi
            for b, c, lo, hi in ((1, ("SM CASE", "SM BOX"), 1, 5),
                                 (2, ("MED BAG", "MED PKG"), 10, 10),
                                 (3, ("LG CASE", "LG BOX"), 20, 15))),
    ),
    "null-rejecting": (
        Or([
            Comparison("l_discount", CompareOp.LT, 3),
            Not(Or([Comparison("l_discount", CompareOp.GE, 8),
                    Comparison("p_brand", CompareOp.NE, 0)])),
        ]),
        lambda r: r[7] is not None and (
            r[7] < 3 or (r[7] < 8 and r[1] == 0)),
    ),
}

#: Frozen at the parent of the change that dropped the row-list selectors:
#: rows, batch lengths and per-batch charge counts of each Filter over INLJ.
ROW_LIST_FILTER_GOLDEN = {
    "null-rejecting/classic": {
        "rows": [2997, "043c509efc5491ca"],
        "batches": [395, 373, 384, 428, 415, 389, 415, 198],
        "cpu": [9, "2d394cd667f07fd4"], "io": [9, "9b02c4f13e841c4e"]},
    "null-rejecting/smooth": {
        "rows": [2997, "043c509efc5491ca"],
        "batches": [395, 373, 384, 428, 415, 389, 415, 198],
        "cpu": [9, "888745622c556e99"], "io": [9, "9b02c4f13e841c4e"]},
    "q19/classic": {
        "rows": [305, "43c1c748a4b43c37"],
        "batches": [31, 47, 42, 33, 40, 49, 41, 22],
        "cpu": [9, "2d394cd667f07fd4"], "io": [9, "9b02c4f13e841c4e"]},
    "q19/smooth": {
        "rows": [305, "43c1c748a4b43c37"],
        "batches": [31, 47, 42, 33, 40, 49, 41, 22],
        "cpu": [9, "888745622c556e99"], "io": [9, "9b02c4f13e841c4e"]},
}


@pytest.mark.parametrize("access", ["classic", "smooth"])
@pytest.mark.parametrize("name", sorted(ROW_LIST_FILTERS))
def test_filter_over_inlj_position_pairs(part_items, observe_plan, name,
                                          access):
    db, part, item = part_items
    predicate, by_hand = ROW_LIST_FILTERS[name]
    plan = Filter(IndexNestedLoopJoin(FullTableScan(part), item,
                                      "l_partkey", "p_partkey",
                                      inner_access=access), predicate)
    rows, record = observe_plan(db, plan)
    reference = measure(db, HashJoin(FullTableScan(part), FullTableScan(item),
                                     ["p_partkey"], ["l_partkey"])).rows
    assert len(record["batches"]) > 1
    assert sorted(rows) == sorted(filter(by_hand, reference))
    assert record == ROW_LIST_FILTER_GOLDEN[f"{name}/{access}"]

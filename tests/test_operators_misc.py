"""Filter, Project, MapProject, Rename, Limit, Materialize, Sort."""

import pytest

from repro.errors import PlanningError, StorageError
from repro.exec.expressions import Comparison, CompareOp
from repro.exec.misc import Filter, Limit, MapProject, Materialize, Project, Rename
from repro.exec.scans import FullTableScan
from repro.exec.sort import Sort
from repro.exec.stats import measure
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
    """A child that emits row lists (sparse scan runs, joins): one pick
    per row; a one-column projection still yields 1-tuples."""
    from repro.exec.iterator import Operator

    db, scan = base

    class RowLists(Operator):
        schema = scan.schema

        def batches(self, ctx):
            yield [(1, 2), (3, 4)]
            yield [(5, 6)]

    ctx = db.cold_run()
    assert list(Project(RowLists(), ["b", "a"]).batches(ctx)) == [
        [(2, 1), (4, 3)], [(6, 5)]]
    assert list(Project(RowLists(), ["b"]).batches(ctx)) == [
        [(2,), (4,)], [(6,)]]
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
    mp = MapProject(scan, out, lambda r: (r[0] + r[1],))
    rows = measure(db, mp).rows
    assert rows[3] == (3 + (21 % 10),)


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

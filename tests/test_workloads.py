"""Workload generators: micro, skew, and TPC-H-lite."""

import pytest

from repro.database import Database
from repro.errors import WorkloadError
from repro.exec.scans import FullTableScan
from repro.exec.stats import measure
from repro.workloads.micro import (
    build_micro_table,
    selectivity_predicate,
    selectivity_range,
)
from repro.workloads.skew import build_skew_table, skew_query_range
from repro.workloads.tpch import generate_tpch, scaled_rows
from repro.workloads.tpch.schema import CURRENTDATE, date


def test_micro_geometry(micro_setup):
    _db, table = micro_setup
    assert table.heap.tuples_per_page == 120  # the paper's number
    assert table.row_count == 12_000
    assert table.num_pages == 100
    assert table.has_index("c2") and table.has_index("c1")


def test_micro_c1_is_order_number(micro_setup):
    _db, table = micro_setup
    for i, row in zip(range(50), table.heap.image()[:].to_rows(), strict=False):
        assert row[0] == i


def test_micro_rejects_bad_args(db):
    with pytest.raises(WorkloadError):
        build_micro_table(db, 0)


def test_selectivity_range_hits_target(micro_setup):
    db, table = micro_setup
    for sel in (0.01, 0.1, 0.5):
        pred = selectivity_predicate(sel)
        rows = measure(db, FullTableScan(table, pred)).rows
        assert len(rows) / table.row_count == pytest.approx(sel, rel=0.25)


def test_selectivity_extremes(micro_setup):
    db, table = micro_setup
    assert measure(
        db, FullTableScan(table, selectivity_predicate(0.0))
    ).rows == []
    full = measure(db, FullTableScan(table, selectivity_predicate(1.0)))
    assert full.row_count == table.row_count
    with pytest.raises(WorkloadError):
        selectivity_range(1.5)


def test_skew_table_layout(db):
    table = build_skew_table(db, 60_000, dense_fraction=0.01,
                             sparse_fraction=1e-3)
    rng = skew_query_range()
    zeros = [i for i, row in enumerate(table.heap.image()[:].to_rows())
             if row[1] == 0]
    head = int(60_000 * 0.01)
    assert zeros[:head] == list(range(head))      # dense head
    tail_zeros = [z for z in zeros if z >= head]  # sparse tail exists
    assert 20 < len(tail_zeros) < 200
    assert rng.contains(0) and not rng.contains(1)


def test_skew_rejects_bad_fractions(db):
    with pytest.raises(WorkloadError):
        build_skew_table(db, 100, dense_fraction=1.5)
    with pytest.raises(WorkloadError):
        build_skew_table(db, 0)


@pytest.fixture(scope="module")
def tpch():
    db = Database()
    tables = generate_tpch(db, scale_factor=0.002, seed=1)
    return db, tables


def test_tpch_row_counts(tpch):
    _db, tables = tpch
    assert tables.region.row_count == 5
    assert tables.nation.row_count == 25
    assert tables.orders.row_count == scaled_rows("orders", 0.002)
    assert tables.partsupp.row_count == 4 * tables.part.row_count
    assert tables.lineitem.row_count >= tables.orders.row_count


def test_tpch_primary_keys_unique(tpch):
    _db, tables = tpch
    keys = [row[0] for row in tables.orders.heap.image()[:].to_rows()]
    assert len(keys) == len(set(keys))


def test_tpch_referential_integrity(tpch):
    _db, tables = tpch
    order_keys = {row[0] for row in tables.orders.heap.image()[:].to_rows()}
    part_keys = {row[0] for row in tables.part.heap.image()[:].to_rows()}
    for line in tables.lineitem.heap.image()[:].to_rows():
        assert line[0] in order_keys
        assert line[1] in part_keys


def test_tpch_date_correlations(tpch):
    """The spec's correlations that break AVI (ship/commit/receipt)."""
    _db, tables = tpch
    s = tables.lineitem.schema
    sd, cd, rd = (s.index_of("l_shipdate"), s.index_of("l_commitdate"),
                  s.index_of("l_receiptdate"))
    order_dates = {row[0]: row[4]
                   for row in tables.orders.heap.image()[:].to_rows()}
    for line in tables.lineitem.heap.image()[:].to_rows():
        od = order_dates[line[0]]
        assert od < line[sd] <= od + 121
        assert od + 30 <= line[cd] <= od + 90
        assert line[sd] < line[rd] <= line[sd] + 30


def test_tpch_returnflag_correlated_with_receipt(tpch):
    _db, tables = tpch
    s = tables.lineitem.schema
    rd, rf = s.index_of("l_receiptdate"), s.index_of("l_returnflag")
    for line in tables.lineitem.heap.image()[:].to_rows():
        if line[rd] > CURRENTDATE:
            assert line[rf] == "N"
        else:
            assert line[rf] in ("R", "A")


def test_tpch_stale_batch_partitioning():
    db = Database()
    cutoff = date(1993, 9, 2)
    tables = generate_tpch(db, scale_factor=0.002, seed=2,
                           stale_batch_cutoff=cutoff)
    n1 = tables.extras["orders_stale_rows"]
    dates = [row[4] for row in tables.orders.heap.image()[:].to_rows()]
    assert all(d < cutoff for d in dates[:n1])
    assert all(d >= cutoff for d in dates[n1:])
    li_n1 = tables.extras["lineitem_stale_rows"]
    assert 0 < li_n1 < tables.lineitem.row_count


def test_tpch_rejects_bad_scale():
    with pytest.raises(WorkloadError):
        generate_tpch(Database(), scale_factor=0)


def test_tpch_pk_indexes_created(tpch):
    _db, tables = tpch
    assert tables.orders.has_index("o_orderkey")
    assert tables.lineitem.has_index("l_orderkey")
    assert tables.part.has_index("p_partkey")

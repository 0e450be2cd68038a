"""Histograms, the statistics catalog, and staleness injection."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StatisticsError
from repro.optimizer.statistics import (
    ColumnStats,
    Histogram,
    StatisticsCatalog,
    TableStats,
    distinct_count,
)
from repro.storage.types import Column, ColumnType, Schema


@pytest.fixture()
def analyzed(db):
    table = db.load_table(
        "t", Schema.of_ints(["a", "b"]),
        [(i, i % 100) for i in range(10_000)],
    )
    catalog = StatisticsCatalog()
    catalog.analyze(table)
    return db, table, catalog


def test_histogram_uniform_range_fraction():
    hist = Histogram(lo=0.0, hi=100.0, counts=[10] * 100)
    assert hist.range_fraction(0, 50) == pytest.approx(0.5, abs=0.02)
    assert hist.range_fraction(25, 75) == pytest.approx(0.5, abs=0.02)
    assert hist.range_fraction(None, None) == pytest.approx(1.0)
    assert hist.range_fraction(200, 300) == 0.0
    assert hist.range_fraction(-50, -10) == 0.0


def test_histogram_empty_and_degenerate():
    assert Histogram(0.0, 1.0, []).range_fraction(0, 1) == 0.0
    point = Histogram(5.0, 5.0, [10])
    assert point.range_fraction(0, 10) == 1.0


def _range_fraction_over_every_bucket(hist, lo, hi):
    """``Histogram.range_fraction`` as it was: all buckets, every call."""
    if hist.total == 0 or not hist.counts:
        return 0.0
    lo_v = hist.lo if lo is None else max(float(lo), hist.lo)
    hi_v = hist.hi if hi is None else min(float(hi), hist.hi)
    if hi_v < lo_v:
        return 0.0
    if hist.hi == hist.lo:
        return 1.0
    width = (hist.hi - hist.lo) / len(hist.counts)
    if width <= 0:
        return 1.0
    covered = 0.0
    for i, count in enumerate(hist.counts):
        b_lo = hist.lo + i * width
        b_hi = b_lo + width
        overlap = min(hi_v, b_hi) - max(lo_v, b_lo)
        if overlap > 0:
            covered += count * (overlap / width)
    return min(1.0, covered / hist.total)


_BOUND = st.none() | st.integers(-10**6, 10**6) | st.floats(
    -1e6, 1e6, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(
    lo=st.floats(-1e6, 1e6, allow_nan=False),
    span=st.sampled_from([0.0, 1e-9, 0.1, 1.0, 99.0, 100.0, 12345.678, 1e9]),
    counts=st.lists(st.integers(0, 10**6), max_size=120),
    a=_BOUND, b=_BOUND, snap=st.booleans(), data=st.data(),
)
def test_histogram_range_fraction_skips_only_buckets_that_add_nothing(
        lo, span, counts, a, b, snap, data):
    hist = Histogram(lo=lo, hi=lo + span, counts=counts)
    if snap and counts:
        # Bounds on (and a hair off) bucket edges: where rounding lives.
        width = span / len(counts)
        a = lo + data.draw(st.integers(-1, len(counts) + 1)) * width
        b = a + data.draw(st.sampled_from([0.0, width, 3 * width, span]))
    expected = _range_fraction_over_every_bucket(hist, a, b)
    assert hist.range_fraction(a, b).hex() == float(expected).hex()


def test_histogram_skew_detected():
    counts = [1000] + [1] * 99
    hist = Histogram(lo=0.0, hi=100.0, counts=counts)
    assert hist.range_fraction(0, 1) > 0.8
    assert hist.range_fraction(50, 100) < 0.1


def test_analyze_collects_all_columns(analyzed):
    _db, table, catalog = analyzed
    stats = catalog.table_stats("t")
    assert stats.row_count == 10_000
    assert set(stats.columns) == {"a", "b"}
    b = stats.columns["b"]
    assert b.min_value == 0 and b.max_value == 99
    assert b.ndv == 100
    assert b.equality_fraction() == pytest.approx(0.01)


def test_analyze_specific_columns(db):
    table = db.load_table("t", Schema.of_ints(["a", "b"]), [(1, 2)])
    catalog = StatisticsCatalog()
    catalog.analyze(table, columns=["b"])
    assert catalog.column_stats("t", "a") is None
    assert catalog.column_stats("t", "b") is not None


def test_unknown_table_raises(analyzed):
    *_rest, catalog = analyzed
    with pytest.raises(StatisticsError):
        catalog.table_stats("missing")
    assert catalog.column_stats("missing", "a") is None


def test_sampling_approximates(db):
    table = db.load_table("t", Schema.of_ints(["a"]),
                          [(i % 50,) for i in range(20_000)])
    catalog = StatisticsCatalog(seed=3)
    stats = catalog.analyze(table, sample_rate=0.1)
    hist = stats.columns["a"].histogram
    assert hist.range_fraction(0, 25) == pytest.approx(0.5, abs=0.05)


def test_sample_rate_validation(analyzed):
    db, table, catalog = analyzed
    with pytest.raises(StatisticsError):
        catalog.analyze(table, sample_rate=0.0)
    with pytest.raises(StatisticsError):
        catalog.analyze(table, prefix_fraction=1.5)


def test_prefix_analysis_misses_recent_values(db):
    # Chronological load: the second half carries values 100..199.
    rows = [(i,) for i in range(100)] + [(100 + i,) for i in range(100)]
    table = db.load_table("t", Schema.of_ints(["a"]), rows)
    catalog = StatisticsCatalog()
    stats = catalog.analyze(table, prefix_fraction=0.5)
    assert stats.row_count == 100
    hist = stats.columns["a"].histogram
    assert hist.hi <= 99
    assert hist.range_fraction(150, 200) == 0.0  # invisible future


# -- ANALYZE reads the heap image: the statistics may not move ---------------


def _row_path_stats(table, seed=0, sample_rate=1.0, buckets=100,
                    prefix_fraction=None):
    """``StatisticsCatalog.analyze`` as it was: a value at a time off the
    row tuples, one RNG draw per row per column when sampling."""
    rng = random.Random(seed)
    seen_rows = table.row_count
    if prefix_fraction is not None:
        seen_rows = max(1, int(table.row_count * prefix_fraction))
    stats = TableStats(
        table=table.name, row_count=seen_rows,
        num_pages=max(1, int(table.num_pages * (
            prefix_fraction if prefix_fraction is not None else 1.0))))
    for pos, name in enumerate(table.schema.column_names):
        values = []
        for i, row in enumerate(table.heap.image()[:].to_rows()):
            if i >= seen_rows:
                break
            if sample_rate >= 1.0 or rng.random() < sample_rate:
                values.append(row[pos])
        if not values:
            stats.columns[name] = ColumnStats(name, seen_rows, None, None, 0)
            continue
        lo, hi = min(values), max(values)
        histogram = None
        if all(isinstance(v, (int, float)) for v in values):
            counts = [0] * buckets
            span = float(hi) - float(lo)
            for v in values:
                if span <= 0:
                    counts[0] += 1
                else:
                    counts[min(buckets - 1, int(
                        (float(v) - float(lo)) / span * buckets))] += 1
            histogram = Histogram(lo=float(lo), hi=float(hi), counts=counts)
        stats.columns[name] = ColumnStats(name, seen_rows, lo, hi,
                                          len(set(values)), histogram)
    return stats


def _micro_tables(db):
    from repro.workloads.micro import build_micro_table
    return [build_micro_table(db, num_tuples=3_000, seed=7)]


def _skew_tables(db):
    from repro.workloads.skew import build_skew_table
    return [build_skew_table(db, 3_000)]


def _tpch_tables(db):
    from repro.workloads.tpch.generator import generate_tpch
    return generate_tpch(db, scale_factor=0.001).all_tables()


def _edge_tables(db):
    """Floats, a constant column, integers past int64 (an object list in
    the image, numeric all the same), one row, no rows."""
    mixed = Schema([Column("f", ColumnType.FLOAT), Column("same"),
                    Column("big", ColumnType.BIGINT)])
    return [
        db.load_table("mixed", mixed, [
            (i * 0.25 - 3.0, 7, 2**70 + i % 4) for i in range(500)]),
        db.load_table("one", Schema.of_ints(["a"]), [(5,)]),
        db.load_table("none", Schema.of_ints(["a"]), []),
    ]


@pytest.mark.parametrize("kwargs", [
    {}, {"sample_rate": 0.1}, {"prefix_fraction": 0.5},
    {"sample_rate": 0.3, "prefix_fraction": 0.5, "buckets": 7},
], ids=repr)
@pytest.mark.parametrize("build", [_micro_tables, _skew_tables,
                                   _tpch_tables, _edge_tables])
def test_analyze_from_the_image_equals_the_row_walk(db, build, kwargs):
    for table in build(db):
        expected = _row_path_stats(table, seed=5, **kwargs)
        got = StatisticsCatalog(seed=5).analyze(table, **kwargs)
        assert got == expected
        for name, column in got.columns.items():
            want = expected.columns[name]
            # Built-in values, not array scalars that merely compare equal.
            assert type(column.min_value) is type(want.min_value), name
            assert type(column.max_value) is type(want.max_value), name
            if column.histogram is not None:
                assert {type(c) for c in column.histogram.counts} <= {int}


_I64 = np.iinfo(np.int64)
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("values", [
    [5], [3, 3, 3], [_I64.min, _I64.max, 0, _I64.min, -1, _I64.max],
    [_I64.max, _I64.max - 1, _I64.min + 1, _I64.min],
    [1.0], [_NAN], [_NAN, _NAN, _NAN], [0.0, -0.0], [-0.0, -0.0, 0.0],
    [_NAN, 1.0, _NAN, -0.0, 0.0, _INF, -_INF, _NAN, _INF, 2.5],
    [_INF, _NAN], [-_INF, -_INF, _NAN], [2.0 ** 53, 2.0 ** 53 + 1],
], ids=repr)
def test_ndv_by_sort_is_numpy_unique(values):
    array = np.array(values)
    assert distinct_count(array) == len(np.unique(array))
    assert type(distinct_count(array)) is int


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([_NAN, -0.0, 0.0, _INF, -_INF, 1.5, -3.0]),
                min_size=1, max_size=40),
       st.lists(st.integers(_I64.min, _I64.max), min_size=1, max_size=40))
def test_ndv_by_sort_is_numpy_unique_on_any_array(floats, ints):
    for array in (np.array(floats), np.array(ints, dtype=np.int64)):
        assert distinct_count(array) == len(np.unique(array))

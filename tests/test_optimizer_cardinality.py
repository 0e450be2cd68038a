"""Selectivity estimation: histogram use, AVI, and the blind defaults."""

import pytest

from repro.exec.expressions import (
    And,
    Between,
    ColumnComparison,
    CompareOp,
    Comparison,
    InList,
    Not,
    Or,
    StringMatch,
    TruePredicate,
)
from repro.optimizer.cardinality import (
    DEFAULT_COLUMN_COMPARE_SELECTIVITY,
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_MATCH_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    estimate_cardinality,
    estimate_selectivity,
)
from repro.optimizer.statistics import StatisticsCatalog
from repro.storage.types import Schema


@pytest.fixture()
def cat(db):
    table = db.load_table(
        "t", Schema.of_ints(["a", "b"]),
        [(i % 1000, (i * 7) % 10) for i in range(10_000)],
    )
    catalog = StatisticsCatalog()
    catalog.analyze(table)
    return db, table, catalog


def test_true_predicate_is_one(cat):
    _db, _t, catalog = cat
    assert estimate_selectivity(catalog, "t", TruePredicate()) == 1.0


def test_equality_uses_ndv(cat):
    _db, _t, catalog = cat
    sel = estimate_selectivity(catalog, "t", Comparison("b", CompareOp.EQ, 3))
    assert sel == pytest.approx(0.1)


def test_range_uses_histogram(cat):
    _db, _t, catalog = cat
    sel = estimate_selectivity(catalog, "t", Between("a", 0, 500))
    assert sel == pytest.approx(0.5, abs=0.05)


def test_open_ranges(cat):
    _db, _t, catalog = cat
    lt = estimate_selectivity(catalog, "t",
                              Comparison("a", CompareOp.LT, 250))
    gt = estimate_selectivity(catalog, "t",
                              Comparison("a", CompareOp.GE, 750))
    assert lt == pytest.approx(0.25, abs=0.05)
    assert gt == pytest.approx(0.25, abs=0.05)


def test_avi_multiplies_conjuncts(cat):
    _db, _t, catalog = cat
    a = Between("a", 0, 500)
    b = Comparison("b", CompareOp.EQ, 3)
    joint = estimate_selectivity(catalog, "t", And([a, b]))
    expected = (estimate_selectivity(catalog, "t", a)
                * estimate_selectivity(catalog, "t", b))
    assert joint == pytest.approx(expected)


def test_or_union(cat):
    _db, _t, catalog = cat
    p1 = Comparison("b", CompareOp.EQ, 1)
    p2 = Comparison("b", CompareOp.EQ, 2)
    sel = estimate_selectivity(catalog, "t", Or([p1, p2]))
    assert sel == pytest.approx(0.1 + 0.1 - 0.01)


def test_not_complements(cat):
    _db, _t, catalog = cat
    sel = estimate_selectivity(catalog, "t",
                               Not(Comparison("b", CompareOp.EQ, 3)))
    assert sel == pytest.approx(0.9)


def test_ne(cat):
    _db, _t, catalog = cat
    sel = estimate_selectivity(catalog, "t",
                               Comparison("b", CompareOp.NE, 3))
    assert sel == pytest.approx(0.9)


def test_in_list(cat):
    _db, _t, catalog = cat
    sel = estimate_selectivity(catalog, "t", InList("b", (1, 2, 3)))
    assert sel == pytest.approx(0.3)


def test_defaults_without_stats():
    catalog = StatisticsCatalog()
    assert estimate_selectivity(
        catalog, "ghost", Comparison("x", CompareOp.EQ, 1)
    ) == DEFAULT_EQ_SELECTIVITY
    assert estimate_selectivity(
        catalog, "ghost", Between("x", 1, 2)
    ) == DEFAULT_RANGE_SELECTIVITY
    assert estimate_selectivity(
        catalog, "ghost", StringMatch("x", "prefix", "a")
    ) == DEFAULT_MATCH_SELECTIVITY


def test_column_comparison_is_blind(cat):
    """No statistic helps col-vs-col: the Q12 trap (§VI-B)."""
    _db, _t, catalog = cat
    sel = estimate_selectivity(
        catalog, "t", ColumnComparison("a", CompareOp.LT, "b")
    )
    assert sel == DEFAULT_COLUMN_COMPARE_SELECTIVITY
    eq = estimate_selectivity(
        catalog, "t", ColumnComparison("a", CompareOp.EQ, "b")
    )
    assert eq == DEFAULT_EQ_SELECTIVITY


def test_estimate_cardinality_uses_catalog_rows(cat):
    _db, _t, catalog = cat
    card = estimate_cardinality(catalog, "t",
                                Comparison("b", CompareOp.EQ, 3))
    assert card == pytest.approx(1_000, rel=0.05)


def test_estimate_cardinality_fallback_rows():
    catalog = StatisticsCatalog()
    card = estimate_cardinality(catalog, "ghost", TruePredicate(),
                                fallback_rows=500)
    assert card == 500
    assert estimate_cardinality(catalog, "ghost", TruePredicate()) == 0


def test_stale_rowcount_underestimates(cat):
    _db, _t, catalog = cat
    catalog.table_stats("t").row_count //= 10  # stale statistics
    card = estimate_cardinality(catalog, "t", TruePredicate())
    assert card == 1_000  # believes the table is 10x smaller

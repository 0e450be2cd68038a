"""Predicates, key ranges, and range extraction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanningError
from repro.exec.expressions import (
    And,
    Between,
    ColumnComparison,
    CompareOp,
    Comparison,
    InList,
    KeyRange,
    Not,
    Or,
    StringMatch,
    TruePredicate,
    conjunction,
    extract_range,
    require_columns,
)
from repro.storage.chunk import Chunk
from repro.storage.types import Schema

from kleene import truth

SCHEMA = Schema.of_ints(["a", "b", "c"])


def verdict(pred, row, schema=SCHEMA):
    """The compiled kernel on a one-row chunk: True, False or None."""
    true, unknown = pred.compile(schema)(Chunk.from_rows(schema, [row]))
    if true is None or true[0]:
        return True
    return None if unknown is not None and unknown[0] else False


def bind(pred, schema=SCHEMA):
    """``row -> bool``: does a WHERE on ``pred`` keep ``row``?"""
    return lambda row: verdict(pred, row, schema) is True


def test_true_predicate():
    assert bind(TruePredicate())((1, 2, 3))


@pytest.mark.parametrize("op,value,expect", [
    (CompareOp.EQ, 2, True), (CompareOp.NE, 2, False),
    (CompareOp.LT, 3, True), (CompareOp.LE, 2, True),
    (CompareOp.GT, 1, True), (CompareOp.GE, 3, False),
])
def test_comparison_ops(op, value, expect):
    assert bind(Comparison("b", op, value))((1, 2, 3)) is expect


def test_between_bounds():
    assert bind(Between("b", 1, 3))((0, 1, 0))
    assert not bind(Between("b", 1, 3))((0, 3, 0))
    assert bind(Between("b", 1, 3, hi_inclusive=True))((0, 3, 0))
    assert not bind(Between("b", 1, 3, lo_inclusive=False))((0, 1, 0))


def test_in_list():
    pred = bind(InList("a", (1, 5, 9)))
    assert pred((5, 0, 0))
    assert not pred((2, 0, 0))


def test_and_or_not_composition():
    pred = (Comparison("a", CompareOp.GT, 0)
            & Comparison("b", CompareOp.LT, 10))
    assert bind(pred)((1, 5, 0))
    assert not bind(pred)((0, 5, 0))
    disj = (Comparison("a", CompareOp.EQ, 1)
            | Comparison("a", CompareOp.EQ, 2))
    assert bind(disj)((2, 0, 0))
    assert bind(Not(Comparison("a", CompareOp.EQ, 1)))((2, 0, 0))


def test_a_null_is_unknown_and_not_keeps_it():
    """A leaf reading a NULL is UNKNOWN, never FALSE, so ``NOT`` over it
    keeps no row; the connectives are Kleene's."""
    row = (None, 2, 3)
    a_is_1 = Comparison("a", CompareOp.EQ, 1)
    b_is_2 = Comparison("b", CompareOp.EQ, 2)
    for leaf in (a_is_1, Comparison("a", CompareOp.NE, 1),
                 Between("a", 0, 9), InList("a", (1, 2)),
                 ColumnComparison("a", CompareOp.LT, "b"),
                 Comparison("b", CompareOp.EQ, None)):
        assert verdict(leaf, row) is None, leaf
        assert verdict(Not(leaf), row) is None, leaf
    assert verdict(And([a_is_1, b_is_2]), row) is None
    assert verdict(And([a_is_1, Not(b_is_2)]), row) is False
    assert verdict(Or([a_is_1, b_is_2]), row) is True
    assert verdict(Or([a_is_1, Not(b_is_2)]), row) is None
    assert verdict(InList("b", (7, None)), row) is None
    assert verdict(InList("b", (2, None)), row) is True


def test_string_match_kinds():
    row = ("PROMO BRUSHED TIN",)

    def match(kind, value):
        from repro.storage.types import Column, ColumnType
        s = Schema([Column("s", ColumnType.CHAR, 25)])
        return bind(StringMatch("s", kind, value), s)(row)

    assert match("prefix", "PROMO")
    assert match("suffix", "TIN")
    assert match("contains", "BRUSHED")
    assert not match("prefix", "TIN")


def test_string_match_bad_kind():
    with pytest.raises(PlanningError):
        StringMatch("s", "regex", "x")


def test_column_comparison():
    pred = bind(ColumnComparison("a", CompareOp.LT, "b"))
    assert pred((1, 2, 0))
    assert not pred((2, 1, 0))


def test_key_range_contains():
    rng = KeyRange(10, 20)
    assert rng.contains(10) and rng.contains(19)
    assert not rng.contains(20) and not rng.contains(9)
    assert KeyRange.equal(5).contains(5)
    assert KeyRange.all().contains(-999)
    assert not KeyRange(10, 20, lo_inclusive=False).contains(10)
    assert KeyRange(10, 20, hi_inclusive=True).contains(20)


def test_key_range_intersect():
    merged = KeyRange(0, 100).intersect(KeyRange(50, 200))
    assert merged.lo == 50 and merged.hi == 100
    point = KeyRange.equal(5).intersect(KeyRange(0, 10))
    assert point.contains(5)


def test_extract_range_comparison():
    rng, residual = extract_range(Comparison("b", CompareOp.GE, 7), "b")
    assert rng.lo == 7 and rng.lo_inclusive and rng.hi is None
    assert isinstance(residual, TruePredicate)


def test_extract_range_between():
    rng, residual = extract_range(Between("b", 1, 9), "b")
    assert (rng.lo, rng.hi) == (1, 9)
    assert isinstance(residual, TruePredicate)


def test_extract_range_wrong_column():
    pred = Comparison("a", CompareOp.GE, 7)
    rng, residual = extract_range(pred, "b")
    assert rng is None
    assert residual is pred


def test_extract_range_conjunction_combines():
    pred = And([
        Comparison("b", CompareOp.GE, 5),
        Comparison("b", CompareOp.LT, 10),
        Comparison("a", CompareOp.EQ, 1),
    ])
    rng, residual = extract_range(pred, "b")
    assert (rng.lo, rng.hi) == (5, 10)
    assert "a" in residual.columns()
    assert "b" not in residual.columns()


def test_extract_range_ne_is_residual():
    rng, residual = extract_range(Comparison("b", CompareOp.NE, 5), "b")
    assert rng is None
    assert residual.columns() == {"b"}


def test_extract_range_or_is_opaque():
    pred = Or([Comparison("b", CompareOp.EQ, 1),
               Comparison("b", CompareOp.EQ, 2)])
    rng, residual = extract_range(pred, "b")
    assert rng is None
    assert residual is pred


def test_extract_range_in_list_bounds_with_residual():
    pred = InList("b", (30, 5, 12))
    rng, residual = extract_range(pred, "b")
    assert (rng.lo, rng.hi) == (5, 30)
    assert rng.lo_inclusive and rng.hi_inclusive
    # The range over-approximates membership: the full IN stays residual.
    assert residual is pred


def test_extract_range_in_list_conjunction_intersects():
    pred = And([
        InList("b", (5, 12, 30)),
        Comparison("b", CompareOp.LT, 20),
        Comparison("a", CompareOp.EQ, 1),
    ])
    rng, residual = extract_range(pred, "b")
    assert (rng.lo, rng.hi) == (5, 20)
    assert not rng.hi_inclusive
    # Residual keeps both the membership check and the other column.
    assert residual.columns() == {"a", "b"}


def test_extract_range_in_list_respects_rows():
    # Semantics check: range + residual together select exactly the
    # IN members, as every index-driven path assumes.
    schema = Schema.of_ints(["a", "b"])
    rows = [(i, i % 7) for i in range(50)]
    pred = InList("b", (2, 5))
    rng, residual = extract_range(pred, "b")
    matched = [
        r for r in rows
        if rng.contains(r[1]) and truth(residual, schema, r)
    ]
    assert matched == [r for r in rows if r[1] in (2, 5)]


def test_extract_range_empty_in_list_is_opaque():
    pred = InList("b", ())
    rng, residual = extract_range(pred, "b")
    assert rng is None
    assert residual is pred


def test_extract_range_unorderable_in_list_is_opaque():
    # Mixed-type IN lists bind fine (frozenset membership) but have no
    # ordered bounds; they must stay opaque instead of raising.
    pred = InList("b", (5, "x"))
    rng, residual = extract_range(pred, "b")
    assert rng is None
    assert residual is pred


@pytest.mark.parametrize("lo", [None, 3])
@pytest.mark.parametrize("hi", [None, 3, 9])
@pytest.mark.parametrize("lo_inclusive", [True, False])
@pytest.mark.parametrize("hi_inclusive", [True, False])
def test_key_range_predicate_round_trips(lo, hi, lo_inclusive, hi_inclusive):
    rng = KeyRange(lo, hi, lo_inclusive, hi_inclusive)
    predicate = rng.predicate("b")
    if lo is None and hi is None:
        assert predicate == TruePredicate()
        assert extract_range(predicate, "b") == (None, TruePredicate())
    else:
        # An unbounded side's inclusivity flag means nothing: the
        # predicate leaves it out, so it comes back as the default.
        if lo is None:
            rng = KeyRange(None, hi, hi_inclusive=hi_inclusive)
        if hi is None:
            rng = KeyRange(lo, None, lo_inclusive=lo_inclusive)
        assert extract_range(predicate, "b") == (rng, TruePredicate())
    matches = bind(predicate)
    for key in range(12):
        assert matches((0, key, 0)) == rng.contains(key)


def test_predicate_reprs_are_sqlish():
    assert repr(Between("c2", 0, 20_000, hi_inclusive=True)) == \
        "c2 BETWEEN 0 AND 20000"
    assert repr(Between("c2", 0, 20_000)) == "c2 >= 0 AND c2 < 20000"
    assert repr(InList("c2", (1, 2, 3))) == "c2 IN (1, 2, 3)"
    assert repr(Not(Comparison("c2", CompareOp.EQ, 5))) == "NOT (c2 = 5)"
    assert repr(And([Comparison("a", CompareOp.GT, 1),
                     InList("b", (7,))])) == "(a > 1 AND b IN (7))"


def test_conjunction_simplifies():
    assert isinstance(conjunction([]), TruePredicate)
    single = Comparison("a", CompareOp.EQ, 1)
    assert conjunction([TruePredicate(), single]) is single
    multi = conjunction([single, Comparison("b", CompareOp.EQ, 2)])
    assert isinstance(multi, And)


def test_require_columns():
    require_columns(SCHEMA, Comparison("a", CompareOp.EQ, 1))
    with pytest.raises(PlanningError):
        require_columns(SCHEMA, Comparison("z", CompareOp.EQ, 1))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50),
                       st.integers(0, 50)), max_size=100),
    st.integers(0, 50), st.integers(0, 50), st.integers(0, 50),
)
def test_property_extract_range_equivalence(rows, lo, hi, other):
    """Range + residual must accept exactly the rows the original does."""
    pred = And([
        Comparison("b", CompareOp.GE, lo),
        Comparison("b", CompareOp.LT, hi),
        Comparison("a", CompareOp.GE, other),
    ])
    rng, residual = extract_range(pred, "b")
    for row in rows:
        recombined = rng.contains(row[1]) and truth(residual, SCHEMA, row)
        assert recombined == truth(pred, SCHEMA, row)

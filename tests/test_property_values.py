"""Computed values against a row-by-row Python fold, and sqlite3.

Hypothesis writes expressions — ``+ - * /``, unary minus, ``CASE``,
literals and ``:params`` — over INT, FLOAT, NULL-bearing and beyond-int64
columns, aggregates them under GROUP BY (sum, avg, min, max, count) and
feeds the aggregates through a post-aggregate map.  The reference is a
plain Python fold over the rows with SQL's NULL rules: arithmetic over
NULL is NULL, a CASE condition that reads NULL takes ELSE, aggregates
skip NULL, and sum starts from ``0.0``.  The engine must match it
bitwise — every value's type and ``repr``, so ``-0.0`` is not ``0.0`` —
and must raise :class:`ExecutionError` exactly where the fold divides by
zero.  Expressions over FLOAT columns and float literals alone are also
run through stdlib ``sqlite3`` (``total`` for ``sum``), which witnesses
the NULL and CASE semantics to within float rounding.
"""

import operator
import random
import sqlite3

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.config import EngineConfig
from repro.database import Database
from repro.errors import ExecutionError
from repro.storage.types import Column, ColumnType, Schema

BIG = 2 ** 64
FLOATS = (0.0, 0.5, 1.25, 2.0, 3.5)
INTS = (0, 1, 2, 3, 7)
COLUMNS = ("i", "f", "n", "x", "b")
FLOAT_COLUMNS = ("f", "x")
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}
_CMP = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "=": operator.eq, "!=": operator.ne}
_AGGS = ("sum", "avg", "min", "max", "count")


def make_rows(count=700, seed=2015):
    """g: group key; i INT; f FLOAT (with -0.0); n INT and x FLOAT with
    NULLs; b INT with values past int64."""
    rng = random.Random(seed)
    rows = []
    for r in range(count):
        rows.append((
            r % 4,
            rng.randint(-5, 5),
            rng.choice((-2.5, -0.0, 0.0, 0.5, 1.25, 3.0, 7.5)),
            None if rng.random() < 0.25 else rng.randint(-3, 3),
            None if rng.random() < 0.25 else rng.choice(
                (-1.5, 0.0, 0.25, 2.0, 4.5)),
            rng.choice((-BIG - 3, BIG + 1)) if rng.random() < 0.1
            else rng.randint(-9, 9),
        ))
    return rows


ROWS = make_rows()
NAMES = ("g",) + COLUMNS


@pytest.fixture(scope="module")
def engine():
    # One-page extents: the scan hands the aggregate several batches.
    db = Database(EngineConfig(extent_pages=1))
    db.load_table("t", Schema([
        Column("g"), Column("i"), Column("f", ColumnType.FLOAT),
        Column("n"), Column("x", ColumnType.FLOAT), Column("b"),
    ]), ROWS)
    return db


@pytest.fixture(scope="module")
def witness():
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (g INTEGER, f REAL, x REAL)")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?)",
                     [(r[0], r[2], r[4]) for r in ROWS])
    return conn


# -- expressions -------------------------------------------------------------

def conditions(columns):
    atom = st.tuples(st.just("cmp"), st.sampled_from(columns),
                     st.sampled_from(sorted(_CMP)),
                     st.sampled_from(INTS + FLOATS))
    return st.recursive(atom, lambda inner: st.one_of(
        st.tuples(st.just("not"), inner),
        st.tuples(st.sampled_from(("and", "or")), inner, inner),
    ), max_leaves=3)


def expressions(columns, literals, params=True):
    leaves = [st.tuples(st.just("col"), st.sampled_from(columns)),
              st.tuples(st.just("lit"), st.sampled_from(literals))]
    if params:
        leaves.append(st.tuples(st.just("param"), st.sampled_from(
            tuple(-v for v in INTS) + literals)))
    cond = conditions(columns)
    return st.recursive(st.one_of(leaves), lambda inner: st.one_of(
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("arith"), st.sampled_from(sorted(_ARITH)),
                  inner, inner),
        st.tuples(st.just("case"), cond, inner, inner),
    ), max_leaves=5)


def map_expressions(values):
    aggs = st.tuples(st.just("agg"), st.sampled_from(_AGGS), values)
    leaves = st.one_of(aggs, st.just(("agg", "count", None)),
                       st.tuples(st.just("lit"), st.sampled_from(FLOATS)))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("arith"), st.sampled_from(sorted(_ARITH)),
                  inner, inner),
    ), max_leaves=4)


class Sql:
    """Renders an expression tree to SQL text, collecting its params."""

    def __init__(self, sum_name="sum"):
        self.sum_name = sum_name
        self.params = {}

    def cond(self, c):
        kind = c[0]
        if kind == "cmp":
            return f"{c[1]} {c[2]} {c[3]!r}"
        if kind == "not":
            return f"NOT ({self.cond(c[1])})"
        return f"({self.cond(c[1])} {kind.upper()} {self.cond(c[2])})"

    def expr(self, e):
        kind = e[0]
        if kind == "col":
            return e[1]
        if kind == "lit":
            return repr(e[1])
        if kind == "param":
            name = f"p{len(self.params)}"
            self.params[name] = e[1]
            return f":{name}"
        if kind == "neg":
            return f"-({self.expr(e[1])})"
        if kind == "arith":
            return f"({self.expr(e[2])} {e[1]} {self.expr(e[3])})"
        if kind == "case":
            return (f"CASE WHEN {self.cond(e[1])} THEN {self.expr(e[2])} "
                    f"ELSE {self.expr(e[3])} END")
        func, arg = e[1], e[2]
        if arg is None:
            return "count(*)"
        return f"{self.sum_name if func == 'sum' else func}({self.expr(arg)})"


# -- the reference -----------------------------------------------------------

def truth(c, row):
    """SQL three-valued logic: True, False or None (UNKNOWN)."""
    kind = c[0]
    if kind == "cmp":
        v = row[c[1]]
        return None if v is None else _CMP[c[2]](v, c[3])
    if kind == "not":
        t = truth(c[1], row)
        return None if t is None else not t
    a, b = truth(c[1], row), truth(c[2], row)
    if kind == "and":
        if a is False or b is False:
            return False
        return None if a is None or b is None else True
    if a is True or b is True:
        return True
    return None if a is None or b is None else False


def evaluate(e, row):
    """One row's value; both operands are computed before NULL wins."""
    kind = e[0]
    if kind == "col":
        return row[e[1]]
    if kind in ("lit", "param"):
        return e[1]
    if kind == "neg":
        v = evaluate(e[1], row)
        return None if v is None else -v
    if kind == "arith":
        a, b = evaluate(e[2], row), evaluate(e[3], row)
        return None if a is None or b is None else _ARITH[e[1]](a, b)
    if kind == "case":
        return evaluate(e[2] if truth(e[1], row) is True else e[3], row)
    return row[("agg", e[1], e[2])]


def fold(func, values):
    """The row-by-row aggregate: skips NULL, sum starts from 0.0."""
    present = [v for v in values if v is not None]
    if func == "count":
        return len(present)
    if func in ("sum", "avg"):
        total = 0.0
        for v in present:
            total += v
        if func == "sum":
            return total
        return total / len(present) if present else None
    best = None
    for v in present:
        if best is None or (v < best if func == "min" else v > best):
            best = v
    return best


def groups():
    out = {}
    for row in ROWS:
        out.setdefault(row[0], []).append(dict(zip(NAMES, row, strict=True)))
    return out


def agg_leaves(e, found):
    if e[0] == "agg":
        found.add(e)
    elif e[0] in ("neg", "arith"):
        for child in e[1:]:
            if isinstance(child, tuple):
                agg_leaves(child, found)
    return found


def reference(items):
    """Per group, in key order, ``(g, value of each item...)``; raises
    ZeroDivisionError where the fold divides by zero."""
    out = []
    for g, rows in sorted(groups().items()):
        aggs = {}
        for item in items:
            for leaf in agg_leaves(item, set()):
                func, arg = leaf[1], leaf[2]
                values = [1] * len(rows) if arg is None \
                    else [evaluate(arg, row) for row in rows]
                aggs[leaf] = fold(func, values)
        out.append((g,) + tuple(evaluate(item, aggs) for item in items))
    return out


def bitwise(rows):
    return [[(type(v).__name__, repr(v)) for v in row] for row in rows]


def run(engine, items):
    sql = Sql()
    select = ", ".join(f"{sql.expr(item)} AS v{k}"
                       for k, item in enumerate(items))
    text = f"SELECT g, {select} FROM t GROUP BY g"
    return sql, text, engine.connect().run(text, sql.params)


def check(engine, items):
    try:
        want = reference(items)
    except ZeroDivisionError:
        with pytest.raises(ExecutionError, match="division by zero"):
            run(engine, items)
        return None
    _sql, _text, result = run(engine, items)
    got = sorted(result.rows)
    assert bitwise(got) == bitwise(want), (_text, _sql.params)
    return got


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
VALUES = expressions(COLUMNS, INTS + FLOATS)


@SETTINGS
@given(value=VALUES)
@example(value=("col", "f"))            # -0.0 and 0.0 tie under min/max
@example(value=("neg", ("col", "b")))   # past int64: an object column
@example(value=("arith", "*", ("col", "n"), ("lit", 2)))   # NULL in
@example(value=("case", ("cmp", "x", ">", 0.5),             # NULL cond
                ("lit", 1), ("lit", 0.5)))
def test_aggregates_of_a_computed_value_match_the_row_fold(engine, value):
    check(engine, [("agg", func, value) for func in _AGGS])


@SETTINGS
@given(item=map_expressions(VALUES))
def test_post_aggregate_maps_match_the_row_fold(engine, item):
    check(engine, [item])


FLOAT_VALUES = expressions(FLOAT_COLUMNS, FLOATS, params=False)


@SETTINGS
@given(value=FLOAT_VALUES, item=map_expressions(FLOAT_VALUES))
def test_float_values_agree_with_sqlite(engine, witness, value, item):
    items = [("agg", func, value) for func in _AGGS] + [item]
    got = check(engine, items)
    if got is None:
        return  # sqlite answers NULL where the engine raises
    sql = Sql(sum_name="total")
    select = ", ".join(f"{sql.expr(i)} AS v{k}" for k, i in enumerate(items))
    want = witness.execute(
        f"SELECT g, {select} FROM t GROUP BY g ORDER BY g").fetchall()
    assert len(got) == len(want)
    for g_row, w_row in zip(got, want, strict=True):
        assert len(g_row) == len(w_row)
        for a, b in zip(g_row, w_row, strict=True):
            assert (a is None and b is None) or \
                a == pytest.approx(b, rel=1e-9, abs=1e-12), (g_row, w_row)

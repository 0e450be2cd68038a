"""Computed values: an expression is a chunk function.

A computed value is ``chunk -> ColumnData``, one value per logical row of
the chunk: an ndarray where NumPy computes it exactly, and otherwise a
list of Python values (an object column), typed by
:func:`~repro.storage.chunk.typed_column` like any other column.  The SQL
binder, the hand-built TPC-H trees and :meth:`Query.map
<repro.api.query.Query.map>` all build their values from the nodes
below, and :class:`~repro.exec.aggregates.HashAggregate` and
:class:`~repro.exec.misc.MapProject` only ever call the result.

A *node* is ``chunk -> ndarray | list | scalar``: a constant stays a
Python scalar inside an expression, so ``column * 2`` is one array
operation, and :func:`compute` broadcasts a scalar once at the top.

NumPy runs only where it is bitwise equal to Python's own arithmetic on
the same values: int64 operands whose bounds rule out overflow (Python
ints are unbounded), int64 division only below 2**53 (Python divides the
exact quotient before rounding), and never a zero divisor.  Everything
else — object columns, NULLs, CHAR values, ints past int64 — runs
element-wise in Python over the values, where NULL in gives NULL out and
division by zero is an :class:`~repro.errors.ExecutionError`.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence

import numpy as _np

from repro.errors import ExecutionError
from repro.exec.expressions import Predicate
from repro.storage.chunk import (
    Chunk,
    ColumnData,
    mask_nonzero,
    typed_column,
)
from repro.storage.types import Schema

#: What a node yields for one chunk: a column, or a scalar for every row.
Node = Callable[[Chunk], object]
ValueFn = Callable[[Chunk], ColumnData]

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "//": operator.floordiv}

#: int64 -> float64 conversion is exact below this, so NumPy's
#: convert-then-divide matches Python's correctly-rounded int division.
_SAFE_DIV = 2 ** 53
_INT64_MAX = 2 ** 63
_NUMERIC = (_np.dtype(_np.int64), _np.dtype(_np.float64))


def _is_column(v) -> bool:
    return isinstance(v, (_np.ndarray, list))


def _values(v, n: int) -> Sequence:
    """A node's result as ``n`` Python values."""
    if isinstance(v, _np.ndarray):
        return v.tolist()
    return v if isinstance(v, list) else [v] * n


def _as_column(v, n: int) -> ColumnData:
    """A node's result as a column of ``n`` values."""
    return v if _is_column(v) else typed_column([v] * n)


def _abs_bound(v) -> int:
    """An upper bound on |v| as an exact Python int (array or scalar)."""
    if isinstance(v, _np.ndarray):
        if not len(v):
            return 0
        return max(int(v.max()), -int(v.min()))
    return abs(v)


def _numpy_arith(op: str, a, b):
    """``a op b`` as one array operation, or None where NumPy could
    differ from Python: an operand that is not an int64/float64 array
    or an int/float scalar, int64 overflow, int division past 2**53,
    floor division of floats, or a zero divisor."""
    a_arr = isinstance(a, _np.ndarray)
    b_arr = isinstance(b, _np.ndarray)
    if not (a_arr or b_arr):
        return None
    for v, arr in ((a, a_arr), (b, b_arr)):
        if (v.dtype not in _NUMERIC) if arr \
                else (type(v) not in (int, float)):
            return None
    a_int = a.dtype == _np.int64 if a_arr else type(a) is int
    b_int = b.dtype == _np.int64 if b_arr else type(b) is int
    if op == "//" and not (a_int and b_int):
        return None
    if a_int and b_int:
        am, bm = _abs_bound(a), _abs_bound(b)
        if op == "/":
            if am >= _SAFE_DIV or bm >= _SAFE_DIV:
                return None
        elif op == "*":
            if am * bm >= _INT64_MAX:
                return None
        elif am + bm >= _INT64_MAX:
            return None
    if op in ("/", "//") and bool((b == 0).any() if b_arr else b == 0):
        return None
    try:
        if op == "/":
            return _np.true_divide(a, b)
        return _OPS[op](a, b)
    except OverflowError:  # a Python scalar outside the array dtype
        return None


def _python_arith(op: str, a, b, n: int) -> object:
    """``a op b`` row by row in Python; NULL in gives NULL out."""
    fn = _OPS[op]
    try:
        if not _is_column(a) and not _is_column(b):
            return None if a is None or b is None else fn(a, b)
        return typed_column([
            None if x is None or y is None else fn(x, y)
            for x, y in zip(_values(a, n), _values(b, n), strict=True)
        ])
    except ZeroDivisionError:
        raise ExecutionError(f"division by zero in {op!r}") from None


def column(pos: int) -> Node:
    """Column ``pos`` of the chunk's logical view."""
    return lambda chunk: chunk.data_column(pos)


def constant(value: object) -> Node:
    """The same value on every row."""
    return lambda chunk: value


def arith(op: str, left: Node, right: Node) -> Node:
    """``left op right`` for ``op`` in ``+ - * / //``."""
    if op not in _OPS:
        raise ValueError(f"unknown arithmetic operator {op!r}")

    def run(chunk: Chunk) -> object:
        a, b = left(chunk), right(chunk)
        out = _numpy_arith(op, a, b)
        if out is None:
            out = _python_arith(op, a, b, len(chunk))
        return out

    return run


def negate(inner: Node) -> Node:
    """``-inner``; an int64 column holding int64's minimum goes to Python."""

    def run(chunk: Chunk) -> object:
        a = inner(chunk)
        if isinstance(a, _np.ndarray) and a.dtype in _NUMERIC and not (
                a.dtype == _np.int64 and len(a)
                and int(a.min()) == -_INT64_MAX):
            return -a
        if not _is_column(a):
            return None if a is None else -a
        return typed_column([None if x is None else -x
                             for x in _values(a, len(chunk))])

    return run


def case(condition: Predicate, schema: Schema, then: Node,
         otherwise: Node) -> Node:
    """``CASE WHEN condition THEN then ELSE otherwise END`` over ``schema``.

    A row takes THEN where the condition is TRUE and ELSE where it is
    FALSE or UNKNOWN (a NULL it reads, through the predicate's one
    three-valued kernel — so ``NOT`` over a NULL takes ELSE too).  Each
    branch is computed over only the rows that take it, so a branch never
    sees — and never fails on — a row the condition sent the other way.
    """
    mask_of = condition.bind_mask(schema)

    def run(chunk: Chunk) -> object:
        n = len(chunk)
        mask = mask_of(chunk)
        if mask is None:
            return then(chunk)
        hit = mask_nonzero(mask)
        if len(hit) == n:
            return then(chunk)
        if not len(hit):
            return otherwise(chunk)
        miss = mask_nonzero(~mask)
        a = _as_column(then(chunk.take(hit)), len(hit))
        b = _as_column(otherwise(chunk.take(miss)), len(miss))
        if isinstance(a, _np.ndarray) and isinstance(b, _np.ndarray) \
                and a.dtype == b.dtype:
            out = _np.empty(n, dtype=a.dtype)
            out[hit] = a
            out[miss] = b
            return out
        merged: list = [None] * n
        for positions, part in ((hit, a), (miss, b)):
            for i, v in zip(_values(positions, 0), _values(part, 0),
                            strict=True):
                merged[i] = v
        return merged

    return run


def compute(node: Node) -> ValueFn:
    """The node as a computed value: one column of ``len(chunk)`` values."""
    return lambda chunk: _as_column(node(chunk), len(chunk))


def compute_all(nodes: Sequence[Node]) -> Callable[[Chunk], list]:
    """Several nodes as one map function: a column per node."""
    nodes = tuple(nodes)
    return lambda chunk: [_as_column(f(chunk), len(chunk)) for f in nodes]

"""A plain-Python three-valued evaluator: the reference predicates are held to.

``truth(predicate, schema, row)`` is ``True``, ``False`` or ``None``
(UNKNOWN) for one row tuple, written from SQL's rules alone and sharing
nothing with the engine's kernels: a comparison that reads a NULL is
UNKNOWN; ``AND`` is FALSE if a part is FALSE, else UNKNOWN if a part is;
``OR`` is TRUE if a part is TRUE, else UNKNOWN if a part is; ``NOT``
keeps UNKNOWN; ``x IN (..)`` is UNKNOWN where it is not TRUE and the list
holds a NULL.  A WHERE keeps a row exactly when ``truth`` is ``True``
(:func:`where`).
"""

import operator

from repro.exec.expressions import (
    And,
    Between,
    ColumnComparison,
    Comparison,
    InList,
    Not,
    Or,
    StringMatch,
    TruePredicate,
)

_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compare(op, a, b):
    if a is None or b is None:
        return None
    return _OPS[op](a, b)


def _and(values):
    values = list(values)
    if False in values:
        return False
    return None if None in values else True


def _or(values):
    values = list(values)
    if True in values:
        return True
    return None if None in values else False


def truth(predicate, schema, row):
    """``True`` / ``False`` / ``None`` (UNKNOWN) for ``row``."""
    def value(column):
        return row[schema.index_of(column)]

    if isinstance(predicate, TruePredicate):
        return True
    if isinstance(predicate, Comparison):
        return _compare(predicate.op.value, value(predicate.column),
                        predicate.value)
    if isinstance(predicate, ColumnComparison):
        return _compare(predicate.op.value, value(predicate.left),
                        value(predicate.right))
    if isinstance(predicate, Between):
        v = value(predicate.column)
        return _and([
            _compare(">=" if predicate.lo_inclusive else ">", v, predicate.lo),
            _compare("<=" if predicate.hi_inclusive else "<", v, predicate.hi),
        ])
    if isinstance(predicate, InList):
        v = value(predicate.column)
        return _or(_compare("=", v, item) for item in predicate.values)
    if isinstance(predicate, StringMatch):
        v = value(predicate.column)
        if v is None:
            return None
        if predicate.kind == "prefix":
            return v.startswith(predicate.value)
        if predicate.kind == "suffix":
            return v.endswith(predicate.value)
        return predicate.value in v
    if isinstance(predicate, And):
        return _and(truth(p, schema, row) for p in predicate.parts)
    if isinstance(predicate, Or):
        return _or(truth(p, schema, row) for p in predicate.parts)
    if isinstance(predicate, Not):
        inner = truth(predicate.part, schema, row)
        return None if inner is None else not inner
    raise TypeError(f"no reference for {predicate!r}")


def where(predicate, schema, rows):
    """The rows a WHERE on ``predicate`` keeps: those it holds TRUE for."""
    return [row for row in rows if truth(predicate, schema, row) is True]

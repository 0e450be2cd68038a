"""Predicates and key ranges.

A predicate compiles two ways, one per shape of input:

* :meth:`Predicate.bind` — a plain ``row -> bool`` closure with column
  positions resolved once.  It checks one tuple at a time, and is the
  reference the columnar forms are held to; the default
  :meth:`~Predicate.bind_mask` evaluates it row-wise (what
  :class:`NullRejecting`'s three-valued logic rides).
* :meth:`Predicate.bind_mask` / :meth:`Predicate.bind_chunk` — the
  columnar forms over a :class:`~repro.storage.chunk.Chunk`: one array
  comparison produces a boolean mask over a whole run of pages, and
  ``bind_chunk`` narrows the chunk by selection vector without touching a
  single row tuple.  Every operator checks rows this way — a batch is a
  chunk — including the per-probe readers (Mode 0 and Switch Scan's
  index phase read one mask per index leaf) and join residuals (one
  mask over the joined chunk).

Conjunctions and disjunctions bind to one plain loop over their parts
(:func:`_all_of` / :func:`_any_of`), which is what keeps the per-tuple
form cheap.

:func:`extract_range` splits a predicate into the key range an index can
serve plus the residual part that must be re-checked per tuple — the
contract between the planner and every index-driven access path
(classical, Sort, Switch and Smooth Scan alike).  A bare
:class:`KeyRange` compiles through :meth:`KeyRange.predicate`, the
predicate it stands for.
"""

from __future__ import annotations

import enum
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import PlanningError
from repro.storage.chunk import (
    Chunk,
    Mask,
    mask_and,
    mask_any,
    mask_from_bools,
    mask_isin,
    mask_not,
    mask_or,
    object_mask,
)
from repro.storage.types import Row, Schema

RowPredicate = Callable[[Row], bool]

#: ``chunk -> mask | None`` over the chunk's logical rows; ``None`` means
#: "every row qualifies" (the free all-pass case).
MaskPredicate = Callable[[Chunk], Optional[Mask]]

#: ``chunk -> chunk | None``: narrow a chunk to qualifying rows via its
#: selection vector; ``None`` means no row qualified.
ChunkFilter = Callable[[Chunk], Optional[Chunk]]


def _all_of(bound: Sequence[RowPredicate]) -> RowPredicate:
    """``row -> every part holds``, as one loop (no generator per row)."""
    bound = tuple(bound)

    def all_of(row: Row) -> bool:
        for f in bound:
            if not f(row):
                return False
        return True

    return all_of


def _any_of(bound: Sequence[RowPredicate]) -> RowPredicate:
    """``row -> some part holds``, as one loop (no generator per row)."""
    bound = tuple(bound)

    def any_of(row: Row) -> bool:
        for f in bound:
            if f(row):
                return True
        return False

    return any_of


def _scalar_vectorizable(value: object) -> bool:
    """True when an array comparison against ``value`` is exact."""
    return type(value) in (int, float)


class CompareOp(enum.Enum):
    """Comparison operators supported in predicates."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def fn(self) -> Callable[[object, object], bool]:
        """The Python comparison implementing this operator."""
        return {
            CompareOp.EQ: operator.eq,
            CompareOp.NE: operator.ne,
            CompareOp.LT: operator.lt,
            CompareOp.LE: operator.le,
            CompareOp.GT: operator.gt,
            CompareOp.GE: operator.ge,
        }[self]


class Predicate(ABC):
    """A boolean expression over one row."""

    @abstractmethod
    def bind(self, schema: Schema) -> RowPredicate:
        """Compile to a ``row -> bool`` closure for ``schema``."""

    def bind_mask(self, schema: Schema) -> MaskPredicate:
        """Compile to a columnar ``chunk -> mask | None`` evaluator.

        The mask covers the chunk's *logical* rows (selection applied);
        ``None`` means every row qualifies.  The default evaluates
        :meth:`bind` row-wise over the chunk's row view — exact for any
        predicate (this is what :class:`NullRejecting` rides, keeping its
        three-valued-logic semantics byte-for-byte) — while leaf
        predicates override it with whole-column array comparisons.
        """
        fn = self.bind(schema)

        def mask_of(chunk: Chunk) -> Mask:
            return mask_from_bools(
                (fn(row) for row in chunk.to_rows()), len(chunk)
            )

        return mask_of

    def bind_chunk(self, schema: Schema) -> ChunkFilter:
        """Compile to a ``chunk -> chunk | None`` columnar filter.

        Narrows by selection vector — qualifying rows are never copied,
        an all-pass mask returns the input chunk itself, and ``None``
        signals an empty result (the batch contract forbids yielding it).
        """
        mask_of = self.bind_mask(schema)

        def filter_chunk(chunk: Chunk) -> Chunk | None:
            mask = mask_of(chunk)
            if mask is None:
                return chunk
            return chunk.filter(mask)

        return filter_chunk

    @abstractmethod
    def columns(self) -> set[str]:
        """Names of all columns the predicate references."""

    def __and__(self, other: "Predicate") -> "Predicate":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or([self, other])


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Matches every row (the default when no filter is given)."""

    def bind(self, schema: Schema) -> RowPredicate:
        return lambda row: True

    def bind_mask(self, schema: Schema) -> MaskPredicate:
        return lambda chunk: None

    def columns(self) -> set[str]:
        return set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "TRUE"


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> value``."""

    column: str
    op: CompareOp
    value: object

    def bind(self, schema: Schema) -> RowPredicate:
        idx = schema.index_of(self.column)
        fn = self.op.fn
        value = self.value
        return lambda row: fn(row[idx], value)

    def bind_mask(self, schema: Schema) -> MaskPredicate:
        idx = schema.index_of(self.column)
        fn = self.op.fn
        value = self.value
        vectorizable = _scalar_vectorizable(value)

        def mask_of(chunk: Chunk) -> Mask:
            arr = chunk.array(idx) if vectorizable else None
            if arr is not None:
                return fn(arr, value)
            return object_mask(
                chunk.column_values(idx), lambda v: fn(v, value)
            )

        return mask_of

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.column} {self.op.value} {self.value!r}"


@dataclass(frozen=True)
class Between(Predicate):
    """``lo <(=) column <(=) hi``."""

    column: str
    lo: object
    hi: object
    lo_inclusive: bool = True
    hi_inclusive: bool = False

    def bind(self, schema: Schema) -> RowPredicate:
        idx = schema.index_of(self.column)
        lo, hi = self.lo, self.hi
        lo_ok = operator.ge if self.lo_inclusive else operator.gt
        hi_ok = operator.le if self.hi_inclusive else operator.lt
        return lambda row: lo_ok(row[idx], lo) and hi_ok(row[idx], hi)

    def bind_mask(self, schema: Schema) -> MaskPredicate:
        idx = schema.index_of(self.column)
        lo, hi = self.lo, self.hi
        lo_ok = operator.ge if self.lo_inclusive else operator.gt
        hi_ok = operator.le if self.hi_inclusive else operator.lt
        vectorizable = _scalar_vectorizable(lo) and _scalar_vectorizable(hi)

        def mask_of(chunk: Chunk) -> Mask:
            arr = chunk.array(idx) if vectorizable else None
            if arr is not None:
                return lo_ok(arr, lo) & hi_ok(arr, hi)
            return object_mask(
                chunk.column_values(idx),
                lambda v: lo_ok(v, lo) and hi_ok(v, hi),
            )

        return mask_of

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:
        if self.lo_inclusive and self.hi_inclusive:
            return f"{self.column} BETWEEN {self.lo!r} AND {self.hi!r}"
        lo_op = ">=" if self.lo_inclusive else ">"
        hi_op = "<=" if self.hi_inclusive else "<"
        return (f"{self.column} {lo_op} {self.lo!r} AND "
                f"{self.column} {hi_op} {self.hi!r}")


@dataclass(frozen=True)
class InList(Predicate):
    """``column IN (values)``."""

    column: str
    values: tuple

    def bind(self, schema: Schema) -> RowPredicate:
        idx = schema.index_of(self.column)
        values = frozenset(self.values)
        return lambda row: row[idx] in values

    def bind_mask(self, schema: Schema) -> MaskPredicate:
        idx = schema.index_of(self.column)
        values = tuple(self.values)
        return lambda chunk: mask_isin(chunk.data_column(idx), values)

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:
        items = ", ".join(repr(v) for v in self.values)
        return f"{self.column} IN ({items})"


class And(Predicate):
    """Conjunction of predicates."""

    def __init__(self, parts: Sequence[Predicate]):
        self.parts = tuple(parts)

    def bind(self, schema: Schema) -> RowPredicate:
        return _all_of([p.bind(schema) for p in self.parts])

    def bind_mask(self, schema: Schema) -> MaskPredicate:
        bound = [p.bind_mask(schema) for p in self.parts]

        def mask_of(chunk: Chunk) -> Mask | None:
            mask: Mask | None = None
            for f in bound:
                mask = mask_and(mask, f(chunk))
                if mask is not None and not mask_any(mask):
                    return mask
            return mask

        return mask_of

    def columns(self) -> set[str]:
        return set().union(*(p.columns() for p in self.parts)) if self.parts else set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + " AND ".join(map(repr, self.parts)) + ")"


class Or(Predicate):
    """Disjunction of predicates."""

    def __init__(self, parts: Sequence[Predicate]):
        self.parts = tuple(parts)

    def bind(self, schema: Schema) -> RowPredicate:
        return _any_of([p.bind(schema) for p in self.parts])

    def bind_mask(self, schema: Schema) -> MaskPredicate:
        bound = [p.bind_mask(schema) for p in self.parts]
        if not bound:  # the empty disjunction holds for no row
            return lambda chunk: mask_not(None, len(chunk))

        def mask_of(chunk: Chunk) -> Mask | None:
            mask: Mask | None = None
            first = True
            for f in bound:
                part = f(chunk)
                if part is None:
                    return None
                mask = part if first else mask_or(mask, part)
                first = False
            return mask

        return mask_of

    def columns(self) -> set[str]:
        return set().union(*(p.columns() for p in self.parts)) if self.parts else set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + " OR ".join(map(repr, self.parts)) + ")"


class NullRejecting(Predicate):
    """WHERE semantics over nullable rows: referenced NULLs fail the row.

    Wraps a predicate so that an atom touching ``None`` (e.g. the
    null-padded output of a left join) counts as not matching —
    approximating SQL's three-valued logic with explicit column checks,
    so genuine type errors in the predicate still surface loudly.  The
    UNKNOWN handling distributes through conjunctions and disjunctions
    (``TRUE OR UNKNOWN`` keeps the row; ``TRUE AND UNKNOWN`` drops it)
    and through negations via De Morgan (``NOT (FALSE AND UNKNOWN)``
    keeps the row).  Only the planner places this, and only above outer
    joins; everywhere else predicates stay unwrapped so their
    specialized fast paths keep applying.
    """

    def __init__(self, part: Predicate):
        self.part = part

    def bind(self, schema: Schema) -> RowPredicate:
        part = self.part
        if isinstance(part, Not):
            inner = part.part
            if isinstance(inner, And):
                part = Or([Not(p) for p in inner.parts])
            elif isinstance(inner, Or):
                part = And([Not(p) for p in inner.parts])
            elif isinstance(inner, Not):
                return NullRejecting(inner.part).bind(schema)
        if isinstance(part, (And, Or)):
            bound = [NullRejecting(p).bind(schema) for p in part.parts]
            return (_all_of if isinstance(part, And) else _any_of)(bound)
        fn = part.bind(schema)
        positions = sorted(schema.index_of(c) for c in part.columns())

        def null_safe(row: Row) -> bool:
            for pos in positions:
                if row[pos] is None:
                    return False
            return fn(row)

        return null_safe

    def columns(self) -> set[str]:
        return self.part.columns()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.part)


class Not(Predicate):
    """Negation of a predicate."""

    def __init__(self, part: Predicate):
        self.part = part

    def bind(self, schema: Schema) -> RowPredicate:
        bound = self.part.bind(schema)
        return lambda row: not bound(row)

    def bind_mask(self, schema: Schema) -> MaskPredicate:
        bound = self.part.bind_mask(schema)
        return lambda chunk: mask_not(bound(chunk), len(chunk))

    def columns(self) -> set[str]:
        return self.part.columns()

    def __repr__(self) -> str:
        return f"NOT ({self.part!r})"


@dataclass(frozen=True)
class StringMatch(Predicate):
    """SQL LIKE-style matching: prefix, suffix or substring.

    ``kind`` is one of ``"prefix"`` (``LIKE 'x%'``), ``"suffix"``
    (``LIKE '%x'``) or ``"contains"`` (``LIKE '%x%'``).
    """

    column: str
    kind: str
    value: str

    def __post_init__(self) -> None:
        if self.kind not in ("prefix", "suffix", "contains"):
            raise PlanningError(
                "StringMatch kind must be prefix/suffix/contains, "
                f"got {self.kind!r}"
            )

    def bind(self, schema: Schema) -> RowPredicate:
        idx = schema.index_of(self.column)
        value = self.value
        if self.kind == "prefix":
            return lambda row: row[idx].startswith(value)
        if self.kind == "suffix":
            return lambda row: row[idx].endswith(value)
        return lambda row: value in row[idx]

    def bind_mask(self, schema: Schema) -> MaskPredicate:
        idx = schema.index_of(self.column)
        value = self.value
        if self.kind == "prefix":
            test = lambda v: v.startswith(value)  # noqa: E731
        elif self.kind == "suffix":
            test = lambda v: v.endswith(value)  # noqa: E731
        else:
            test = lambda v: value in v  # noqa: E731
        return lambda chunk: object_mask(chunk.column_values(idx), test)

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pattern = {
            "prefix": f"{self.value}%",
            "suffix": f"%{self.value}",
            "contains": f"%{self.value}%",
        }[self.kind]
        return f"{self.column} LIKE {pattern!r}"


@dataclass(frozen=True)
class ColumnComparison(Predicate):
    """``left_column <op> right_column`` — two columns of the same row.

    The predicate class whose selectivity no per-column statistic can
    estimate; TPC-H's correlated dates (``l_commitdate < l_receiptdate``)
    flow through here, and the optimizer's guess is a blind default.
    """

    left: str
    op: CompareOp
    right: str

    def bind(self, schema: Schema) -> RowPredicate:
        li = schema.index_of(self.left)
        ri = schema.index_of(self.right)
        fn = self.op.fn
        return lambda row: fn(row[li], row[ri])

    def bind_mask(self, schema: Schema) -> MaskPredicate:
        li = schema.index_of(self.left)
        ri = schema.index_of(self.right)
        fn = self.op.fn

        def mask_of(chunk: Chunk) -> Mask:
            left = chunk.array(li)
            right = chunk.array(ri)
            if left is not None and right is not None:
                return fn(left, right)
            lvals = chunk.column_values(li)
            rvals = chunk.column_values(ri)
            return mask_from_bools(
                (fn(a, b) for a, b in zip(lvals, rvals, strict=False)), len(lvals)
            )

        return mask_of

    def columns(self) -> set[str]:
        return {self.left, self.right}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.left} {self.op.value} {self.right}"


@dataclass(frozen=True)
class KeyRange:
    """A (possibly half-open) key interval an index scan can serve.

    ``None`` bounds mean unbounded on that side.
    """

    lo: object | None = None
    hi: object | None = None
    lo_inclusive: bool = True
    hi_inclusive: bool = False

    @classmethod
    def all(cls) -> "KeyRange":
        """The unbounded range (a full index sweep)."""
        return cls()

    @classmethod
    def equal(cls, value: object) -> "KeyRange":
        """The point range ``[value, value]``."""
        return cls(lo=value, hi=value, lo_inclusive=True, hi_inclusive=True)

    def contains(self, key: object) -> bool:
        """True when ``key`` lies inside the range."""
        if self.lo is not None:
            if self.lo_inclusive:
                if key < self.lo:
                    return False
            elif key <= self.lo:
                return False
        if self.hi is not None:
            if self.hi_inclusive:
                if key > self.hi:
                    return False
            elif key >= self.hi:
                return False
        return True

    def predicate(self, column: str) -> Predicate:
        """The predicate ``column in self`` stands for: ``TRUE``, a
        one-sided :class:`Comparison` or a :class:`Between` — which is how
        a scan compiles its key range to a chunk mask."""
        if self.lo is None and self.hi is None:
            return TruePredicate()
        if self.lo is None:
            op = CompareOp.LE if self.hi_inclusive else CompareOp.LT
            return Comparison(column, op, self.hi)
        if self.hi is None:
            op = CompareOp.GE if self.lo_inclusive else CompareOp.GT
            return Comparison(column, op, self.lo)
        return Between(column, self.lo, self.hi,
                       self.lo_inclusive, self.hi_inclusive)

    def intersect(self, other: "KeyRange") -> "KeyRange":
        """The intersection of two ranges (may be empty)."""
        lo, lo_inc = self.lo, self.lo_inclusive
        if other.lo is not None and (lo is None or other.lo > lo or (
                other.lo == lo and not other.lo_inclusive)):
            lo, lo_inc = other.lo, other.lo_inclusive
        hi, hi_inc = self.hi, self.hi_inclusive
        if other.hi is not None and (hi is None or other.hi < hi or (
                other.hi == hi and not other.hi_inclusive)):
            hi, hi_inc = other.hi, other.hi_inclusive
        return KeyRange(lo, hi, lo_inc, hi_inc)


def _range_of_comparison(cmp: Comparison) -> KeyRange | None:
    """The key range implied by one comparison, if any."""
    if cmp.op is CompareOp.EQ:
        return KeyRange.equal(cmp.value)
    if cmp.op is CompareOp.LT:
        return KeyRange(hi=cmp.value, hi_inclusive=False)
    if cmp.op is CompareOp.LE:
        return KeyRange(hi=cmp.value, hi_inclusive=True)
    if cmp.op is CompareOp.GT:
        return KeyRange(lo=cmp.value, lo_inclusive=False)
    if cmp.op is CompareOp.GE:
        return KeyRange(lo=cmp.value, lo_inclusive=True)
    return None  # NE is not a range


def extract_range(predicate: Predicate,
                  column: str) -> tuple[KeyRange | None, Predicate]:
    """Split ``predicate`` into an index range on ``column`` + a residual.

    Returns ``(range, residual)``; ``range`` is ``None`` when the predicate
    does not constrain ``column`` with a usable range (then the residual is
    the whole predicate).  Only top-level conjunctions are decomposed —
    the same simplification production planners start from.
    """
    if isinstance(predicate, Comparison) and predicate.column == column:
        rng = _range_of_comparison(predicate)
        if rng is not None:
            return rng, TruePredicate()
        return None, predicate
    if isinstance(predicate, Between) and predicate.column == column:
        return (
            KeyRange(predicate.lo, predicate.hi,
                     predicate.lo_inclusive, predicate.hi_inclusive),
            TruePredicate(),
        )
    if isinstance(predicate, InList) and predicate.column == column \
            and predicate.values:
        # IN (v1..vn) is bounded by [min, max]; the range over-approximates
        # membership, so the whole InList stays as the residual re-check.
        # This is what lets a SQL ``IN`` filter ride an index/smooth path
        # instead of forcing a full scan.
        try:
            lo, hi = min(predicate.values), max(predicate.values)
        except TypeError:
            # Mixed/unorderable values have no key range; membership via
            # the frozenset-based bind still works, so stay opaque.
            return None, predicate
        return (
            KeyRange(lo, hi, lo_inclusive=True, hi_inclusive=True),
            predicate,
        )
    if isinstance(predicate, And):
        combined: KeyRange | None = None
        residual: list[Predicate] = []
        for part in predicate.parts:
            rng, rest = extract_range(part, column)
            if rng is None:
                residual.append(part)
            else:
                combined = rng if combined is None else combined.intersect(rng)
                if not isinstance(rest, TruePredicate):
                    residual.append(rest)
        if combined is None:
            return None, predicate
        if not residual:
            return combined, TruePredicate()
        if len(residual) == 1:
            return combined, residual[0]
        return combined, And(residual)
    return None, predicate


def conjunction(parts: Iterable[Predicate]) -> Predicate:
    """AND together ``parts``, simplifying the empty and singleton cases.

    Nested conjunctions are flattened, so chained ``conjunction`` calls
    (e.g. repeated ``Query.where``) keep every conjunct at the top
    level — where planners split, push down and extract ranges.
    """
    flat: list[Predicate] = []
    for p in parts:
        if isinstance(p, TruePredicate):
            continue
        if isinstance(p, And):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TruePredicate()
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def require_columns(schema: Schema, predicate: Predicate) -> None:
    """Raise PlanningError if the predicate references unknown columns."""
    missing = [c for c in predicate.columns() if not schema.has_column(c)]
    if missing:
        raise PlanningError(
            f"predicate references columns {missing} absent from schema "
            f"{schema.column_names}"
        )

"""Predicates and key ranges.

A predicate compiles one way, :meth:`Predicate.compile`: a
``chunk -> (true, unknown)`` kernel over the chunk's logical rows (a
:class:`~repro.storage.chunk.Chunk`, selection applied).  That is SQL's
three-valued logic as two boolean masks — a row in ``true`` is TRUE, a
row in ``unknown`` is UNKNOWN, any other row is FALSE — with ``None``
for the free cases: ``true is None`` when every row is TRUE, ``unknown is
None`` when no row is UNKNOWN.

* **A NULL is UNKNOWN.**  A leaf is UNKNOWN exactly where a value it
  reads is NULL, and a NULL never reaches a Python comparison.  On an
  int64/float64 array (which cannot hold NULL) a leaf is one array
  comparison and ``unknown`` is ``None``; on an object column it tests
  the values and finds the NULLs in the same pass.
* **Kleene connectives.**  ``AND`` is FALSE where a part is FALSE, else
  UNKNOWN where a part is UNKNOWN; ``OR`` is TRUE where a part is TRUE,
  else UNKNOWN where a part is UNKNOWN; ``NOT`` swaps TRUE and FALSE and
  keeps UNKNOWN.  ``x IN (.., NULL)`` is UNKNOWN where it is not TRUE.

Every consumer keeps the TRUE rows: WHERE and join residuals through
:meth:`Predicate.bind_mask` / :meth:`Predicate.bind_chunk` (the latter
narrows a chunk by selection vector without touching a row tuple), and
``CASE`` takes THEN on TRUE.  Both derive from the one kernel, so every
access path — full, index, sort, switch, and Smooth Scan's per-leaf
probes and region masks — keeps the same rows for one WHERE clause,
NULLs included.

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

import numpy as _np

from repro.errors import PlanningError
from repro.storage.chunk import Chunk, Mask, mask_and, mask_or, typed_column
from repro.storage.types import Schema

#: ``chunk -> (true, unknown)``: the TRUE rows (``None``: all of them)
#: and the UNKNOWN rows (``None``: none of them); the rest are FALSE.
Kernel = Callable[[Chunk], "tuple[Optional[Mask], Optional[Mask]]"]

#: ``chunk -> mask | None`` over the chunk's logical rows; ``None`` means
#: "every row qualifies" (the free all-pass case).
MaskPredicate = Callable[[Chunk], Optional[Mask]]

#: ``chunk -> chunk | None``: narrow a chunk to qualifying rows via its
#: selection vector; ``None`` means no row qualified.
ChunkFilter = Callable[[Chunk], Optional[Chunk]]

#: The code a leaf's one pass gives a row with a NULL operand.
_NULL = 2


def _verdict(codes: Iterable, n: int) -> tuple[Mask, Optional[Mask]]:
    """``(true, unknown)`` from one pass of per-row codes: ``False``,
    ``True``, or :data:`_NULL` for a row that read a NULL."""
    codes = _np.fromiter(codes, dtype=_np.int8, count=n)
    unknown = codes == _NULL
    if unknown.any():
        return codes == 1, unknown
    return codes.view(bool), None


def _not_false(true: Optional[Mask], unknown: Optional[Mask]):
    """The rows that are TRUE or UNKNOWN (``None``: every row)."""
    return true if true is None or unknown is None else true | unknown


def _split(true: Optional[Mask], not_false: Optional[Mask]):
    """``(true, unknown)`` from the TRUE and the not-FALSE rows."""
    if true is None:
        return None, None
    unknown = ~true if not_false is None else not_false & ~true
    return true, (unknown if unknown.any() else None)


def _all_true(chunk: Chunk):
    return None, None


def _all_unknown(chunk: Chunk):
    n = len(chunk)
    return _np.zeros(n, dtype=bool), _np.ones(n, dtype=bool)


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
        return _COMPARE_FNS[self]


_COMPARE_FNS = {
    CompareOp.EQ: operator.eq,
    CompareOp.NE: operator.ne,
    CompareOp.LT: operator.lt,
    CompareOp.LE: operator.le,
    CompareOp.GT: operator.gt,
    CompareOp.GE: operator.ge,
}


class Predicate(ABC):
    """A three-valued boolean expression over one row."""

    @abstractmethod
    def compile(self, schema: Schema) -> Kernel:
        """Compile to a ``chunk -> (true, unknown)`` kernel for ``schema``."""

    def bind_mask(self, schema: Schema) -> MaskPredicate:
        """Compile to ``chunk -> mask | None``: the TRUE rows.

        The mask covers the chunk's *logical* rows (selection applied);
        ``None`` means every row qualifies.
        """
        kernel = self.compile(schema)
        return lambda chunk: kernel(chunk)[0]

    def bind_chunk(self, schema: Schema) -> ChunkFilter:
        """Compile to a ``chunk -> chunk | None`` filter on the TRUE rows.

        Narrows by selection vector — qualifying rows are never copied,
        an all-pass mask returns the input chunk itself, and ``None``
        signals an empty result (the batch contract forbids yielding it).
        """
        kernel = self.compile(schema)

        def filter_chunk(chunk: Chunk) -> Chunk | None:
            mask = kernel(chunk)[0]
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

    def compile(self, schema: Schema) -> Kernel:
        return _all_true

    def columns(self) -> set[str]:
        return set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "TRUE"


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> value``; a NULL ``value`` is UNKNOWN for every row."""

    column: str
    op: CompareOp
    value: object

    def compile(self, schema: Schema) -> Kernel:
        idx = schema.index_of(self.column)
        fn = self.op.fn
        value = self.value
        if value is None:
            return _all_unknown
        vectorizable = _scalar_vectorizable(value)

        def kernel(chunk: Chunk):
            arr = chunk.array(idx) if vectorizable else None
            if arr is not None:
                return fn(arr, value), None
            values = chunk.column_values(idx)
            return _verdict((_NULL if v is None else fn(v, value)
                             for v in values), len(values))

        return kernel

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

    def compile(self, schema: Schema) -> Kernel:
        lo, hi = self.lo, self.hi
        if lo is None or hi is None:  # a NULL bound: UNKNOWN unless FALSE
            return And([
                Comparison(self.column, CompareOp.GE if self.lo_inclusive
                           else CompareOp.GT, lo),
                Comparison(self.column, CompareOp.LE if self.hi_inclusive
                           else CompareOp.LT, hi),
            ]).compile(schema)
        idx = schema.index_of(self.column)
        lo_ok = operator.ge if self.lo_inclusive else operator.gt
        hi_ok = operator.le if self.hi_inclusive else operator.lt
        vectorizable = _scalar_vectorizable(lo) and _scalar_vectorizable(hi)

        def kernel(chunk: Chunk):
            arr = chunk.array(idx) if vectorizable else None
            if arr is not None:
                return lo_ok(arr, lo) & hi_ok(arr, hi), None
            values = chunk.column_values(idx)
            return _verdict((_NULL if v is None
                             else lo_ok(v, lo) and hi_ok(v, hi)
                             for v in values), len(values))

        return kernel

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
    """``column IN (values)``; a listed NULL makes a miss UNKNOWN."""

    column: str
    values: tuple

    def compile(self, schema: Schema) -> Kernel:
        idx = schema.index_of(self.column)
        listed = tuple(v for v in self.values if v is not None)
        null_listed = len(listed) < len(self.values)
        # Array membership only where the values type to the column's
        # own dtype: an int64 column against a value past int64 (or a
        # float) would compare as float64, where distinct integers can
        # collide.
        probe = typed_column(listed)
        members = frozenset(listed)

        def kernel(chunk: Chunk):
            col = chunk.data_column(idx)
            if isinstance(col, _np.ndarray) and isinstance(
                    probe, _np.ndarray) and probe.dtype == col.dtype:
                true, unknown = _np.isin(col, probe), None
            else:
                values = chunk.column_values(idx)
                true, unknown = _verdict((_NULL if v is None
                                          else v in members
                                          for v in values), len(values))
            return (true, ~true) if null_listed else (true, unknown)

        return kernel

    def columns(self) -> set[str]:
        return {self.column}

    def __repr__(self) -> str:
        items = ", ".join(repr(v) for v in self.values)
        return f"{self.column} IN ({items})"


class And(Predicate):
    """Conjunction of predicates: FALSE wins, then UNKNOWN."""

    def __init__(self, parts: Sequence[Predicate]):
        self.parts = tuple(parts)

    def compile(self, schema: Schema) -> Kernel:
        parts = [p.compile(schema) for p in self.parts]

        def kernel(chunk: Chunk):
            true = unknown = None
            for part in parts:
                t, u = part(chunk)
                if unknown is None and u is None:
                    true = mask_and(true, t)
                else:
                    true, unknown = _split(mask_and(true, t), mask_and(
                        _not_false(true, unknown), _not_false(t, u)))
                if unknown is None and true is not None \
                        and not true.any():
                    break  # every row is FALSE
            return true, unknown

        return kernel

    def columns(self) -> set[str]:
        return set().union(*(p.columns() for p in self.parts)) if self.parts else set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + " AND ".join(map(repr, self.parts)) + ")"


class Or(Predicate):
    """Disjunction of predicates: TRUE wins, then UNKNOWN."""

    def __init__(self, parts: Sequence[Predicate]):
        self.parts = tuple(parts)

    def compile(self, schema: Schema) -> Kernel:
        if not self.parts:  # the empty disjunction holds for no row
            return lambda chunk: (_np.zeros(len(chunk), dtype=bool), None)
        first, *rest = [p.compile(schema) for p in self.parts]

        def kernel(chunk: Chunk):
            true, unknown = first(chunk)
            for part in rest:
                if true is None:
                    break  # every row is TRUE
                t, u = part(chunk)
                if unknown is None and u is None:
                    true = mask_or(true, t)
                else:
                    true, unknown = _split(mask_or(true, t), mask_or(
                        _not_false(true, unknown), _not_false(t, u)))
            return true, unknown

        return kernel

    def columns(self) -> set[str]:
        return set().union(*(p.columns() for p in self.parts)) if self.parts else set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + " OR ".join(map(repr, self.parts)) + ")"


class Not(Predicate):
    """Negation of a predicate: NOT UNKNOWN is UNKNOWN."""

    def __init__(self, part: Predicate):
        self.part = part

    def compile(self, schema: Schema) -> Kernel:
        inner = self.part.compile(schema)

        def kernel(chunk: Chunk):
            true, unknown = inner(chunk)
            if true is None:
                return _np.zeros(len(chunk), dtype=bool), None
            return ~_not_false(true, unknown), unknown

        return kernel

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

    def compile(self, schema: Schema) -> Kernel:
        idx = schema.index_of(self.column)
        value = self.value
        kind = self.kind

        def kernel(chunk: Chunk):
            values = chunk.column_values(idx)
            if kind == "prefix":
                codes = (_NULL if v is None else v.startswith(value)
                         for v in values)
            elif kind == "suffix":
                codes = (_NULL if v is None else v.endswith(value)
                         for v in values)
            else:
                codes = (_NULL if v is None else value in v
                         for v in values)
            return _verdict(codes, len(values))

        return kernel

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

    def compile(self, schema: Schema) -> Kernel:
        li = schema.index_of(self.left)
        ri = schema.index_of(self.right)
        fn = self.op.fn

        def kernel(chunk: Chunk):
            left = chunk.array(li)
            right = chunk.array(ri)
            if left is not None and right is not None:
                return fn(left, right), None
            lvals = chunk.column_values(li)
            rvals = chunk.column_values(ri)
            return _verdict((_NULL if a is None or b is None else fn(a, b)
                             for a, b in zip(lvals, rvals, strict=True)),
                            len(lvals))

        return kernel

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

"""Group-by and scalar aggregation.

A :class:`HashAggregate` with an empty group-by acts as a scalar aggregate
that always emits exactly one row — the shape of TPC-H Q6.  An aggregate
reads a plain column or a computed value (a ``chunk -> ColumnData``
function from :mod:`repro.exec.values`), covering forms like
``sum(l_extendedprice * (1 - l_discount))``.

Each batch is folded once: its group ordinals come from the key columns,
and each spec folds its values into per-group state indexed by ordinal.
A group key is a code, never a hashed row tuple: each key column gets
small-int codes that hold for the whole execution — a heap image's
object column brings its own dictionary
(:class:`~repro.storage.chunk.CodedColumn`), translated once per
payload; any other column is coded per batch through the operator's
dictionary (``np.unique`` first, for an array).  The codes of several
keys pack into one int64 per row, and a sorted table of the packed codes
seen so far maps them to group ordinals in a few array operations; only
a batch that brings new combinations walks them — one step per new
group, in first-seen order, its key tuple read from the first row that
has it.
An exact array (int64, or float64) goes through the *unbuffered* ufunc
methods (``np.add.at``, ``np.minimum.at``, ``np.maximum.at``), which apply
element-wise in index order — bitwise identical to a Python
``total += value`` loop (unlike ``np.sum``'s pairwise reduction, which is
not).  Any other column — an object list with NULLs, CHAR values or ints
past int64, or a float column whose NaN or ``-0.0`` would order
differently in NumPy than in Python under min/max — is folded in Python,
for that spec and that batch alone.  Aggregates skip NULLs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as _np

from repro.context import ExecutionContext
from repro.errors import PlanningError
from repro.exec.iterator import Chunk, Operator, chunked
from repro.storage.chunk import CodedColumn, ColumnData, encode, select
from repro.storage.types import Column, ColumnType, Schema

_SUPPORTED = ("sum", "count", "avg", "min", "max")


def aggregate_output_columns(schema: "Schema", group_by: Sequence[str],
                             aggs: Sequence["AggSpec"]) -> list[Column]:
    """The output layout of an aggregation: group keys, then aggregates.

    The single source of truth for the schema rule — shared by
    :class:`HashAggregate` and by planners/binders that must predict the
    aggregate's output before building it.  Counts are INT; min/max of a
    plain column keep that column's type (and CHAR width); everything
    else uses the spec's declared ``ctype``.
    """
    columns = [schema.columns[schema.index_of(c)] for c in group_by]
    for spec in aggs:
        if spec.func == "count":
            columns.append(Column(spec.output, ColumnType.INT))
        elif spec.func in ("min", "max") and spec.column is not None:
            src = schema.columns[schema.index_of(spec.column)]
            columns.append(Column(spec.output, src.ctype, src.length))
        else:
            columns.append(Column(spec.output, spec.ctype))
    return columns


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output.

    Attributes:
        func: one of ``sum, count, avg, min, max``.
        output: output column name.
        column: input column name, or ``None`` for ``count(*)``.
        value: optional computed input, ``chunk -> ColumnData`` (one
            value per row of the chunk; see :mod:`repro.exec.values`),
            overriding ``column``.
        ctype: output column type (FLOAT by default for sum/avg).
    """

    func: str
    output: str
    column: str | None = None
    value: Callable[[Chunk], ColumnData] | None = None
    ctype: ColumnType = ColumnType.FLOAT

    def __post_init__(self) -> None:
        if self.func not in _SUPPORTED:
            raise PlanningError(
                f"unsupported aggregate {self.func!r}; pick from {_SUPPORTED}"
            )
        if self.func != "count" and self.column is None and self.value is None:
            raise PlanningError(f"{self.func} needs a column or value callable")


def _grow(arr: _np.ndarray, groups: int) -> _np.ndarray:
    """``arr`` with room for ``groups`` groups (zero-filled, doubling)."""
    if len(arr) >= groups:
        return arr
    new = _np.zeros(max(groups, 16, 2 * len(arr)), dtype=arr.dtype)
    new[:len(arr)] = arr
    return new


def _orders_like_python(values: _np.ndarray) -> bool:
    """True when NumPy's min/max of ``values`` is Python's: int64, or
    float64 without NaN (unordered) and without ``-0.0`` (NumPy keeps
    the later of two equal zeros, Python the first)."""
    if values.dtype == _np.int64:
        return True
    return values.dtype == _np.float64 and not (
        _np.isnan(values).any() or _np.signbit(values[values == 0]).any())


class _Fold:
    """One spec's per-group state: counts, float totals, or best values.

    ``best`` is a list of Python values (``None`` until a group sees
    one), merged with Python's ``<`` / ``>`` so the first of two equal
    values stays — the order a row-by-row fold keeps.
    """

    __slots__ = ("func", "value", "counts", "totals", "best")

    def __init__(self, spec: AggSpec, schema: Schema):
        self.func = spec.func
        if spec.value is not None:
            self.value = spec.value
        elif spec.column is not None:
            pos = schema.index_of(spec.column)
            self.value = lambda chunk: chunk.data_column(pos)
        else:
            self.value = None  # count(*)
        self.counts = _np.zeros(0, dtype=_np.int64)
        self.totals = _np.zeros(0, dtype=_np.float64)
        self.best: list = []

    def add(self, chunk: Chunk, ords: _np.ndarray, groups: int) -> None:
        """Fold one batch, whose rows belong to groups ``ords``."""
        self.grow(groups)
        values = None if self.value is None else self.value(chunk)
        f = self.func
        if values is None:
            _np.add.at(self.counts, ords, 1)
        elif not isinstance(values, _np.ndarray):
            self._fold_python(ords, values)
        elif f in ("sum", "avg"):
            if values.dtype != _np.float64:
                values = values.astype(_np.float64)
            _np.add.at(self.totals, ords, values)
            if f == "avg":
                _np.add.at(self.counts, ords, 1)
        elif f == "count":
            _np.add.at(self.counts, ords, 1)  # an array holds no NULL
        elif _orders_like_python(values):
            self._merge_best(ords, values)
        else:
            self._fold_python(ords, values.tolist())

    def grow(self, groups: int) -> None:
        if self.func in ("min", "max"):
            self.best.extend([None] * (groups - len(self.best)))
        else:
            self.counts = _grow(self.counts, groups)
            self.totals = _grow(self.totals, groups)

    def _merge_best(self, ords: _np.ndarray, values: _np.ndarray) -> None:
        """Reduce an exact array per group, then merge into ``best``."""
        is_min = self.func == "min"
        if values.dtype == _np.int64:
            info = _np.iinfo(_np.int64)
            fill = info.max if is_min else info.min
        else:
            fill = _np.inf if is_min else -_np.inf
        reduced = _np.full(len(self.best), fill, dtype=values.dtype)
        (_np.minimum if is_min else _np.maximum).at(reduced, ords, values)
        present = _np.unique(ords)
        self._keep_best(zip(present.tolist(), reduced[present].tolist(),
                            strict=True))

    def _keep_best(self, pairs) -> None:
        best = self.best
        is_min = self.func == "min"
        for g, v in pairs:
            b = best[g]
            if b is None or (v < b if is_min else v > b):
                best[g] = v

    def _fold_python(self, ords: _np.ndarray, values: list) -> None:
        """Fold Python values one by one, skipping NULLs."""
        pairs = [(g, v) for g, v in zip(ords.tolist(), values, strict=True)
                 if v is not None]
        f = self.func
        if f in ("min", "max"):
            self._keep_best(pairs)
        if f in ("count", "avg"):
            _np.add.at(self.counts,
                       _np.asarray([g for g, _v in pairs], dtype=_np.intp), 1)
        if f in ("sum", "avg"):
            totals = self.totals.tolist()
            for g, v in pairs:
                totals[g] += v
            self.totals[:] = totals

    def result(self, g: int) -> object:
        f = self.func
        if f == "count":
            return int(self.counts[g])
        if f == "sum":
            return float(self.totals[g])
        if f == "avg":
            count = int(self.counts[g])
            return float(self.totals[g]) / count if count else None
        return self.best[g]


class _KeyCodes:
    """One group-key column's codes, stable for one execution.

    ``index`` maps each value seen (by Python equality, the equality a
    key tuple compares by) to its code; ``payloads`` holds, per
    :class:`CodedColumn` met, the payload, its row codes and the map
    from its dictionary's codes to these.
    """

    __slots__ = ("index", "payloads")

    def __init__(self) -> None:
        self.index: dict = {}
        self.payloads: dict[int, tuple] = {}

    def codes(self, chunk: Chunk, p: int) -> _np.ndarray:
        """The codes of column ``p`` of ``chunk``, one per row (int64)."""
        col = chunk.columns[p]
        if isinstance(col, CodedColumn):
            held = self.payloads.get(id(col))
            if held is None:
                values, codes = col.dictionary()
                held = self.payloads[id(col)] = (
                    col, codes, encode(values, self.index, _np.int64))
            _col, codes, ours = held
            return ours[select(codes, chunk.sel)]
        data = chunk.data_column(p)
        if not isinstance(data, _np.ndarray):
            return encode(data, self.index, _np.int64)
        distinct, inverse = _np.unique(data, return_inverse=True)
        codes = encode(distinct.tolist(), self.index, _np.int64)[inverse]
        if data.dtype == _np.float64:
            # Each NaN is its own key: a new float object, equal to none.
            nan = _np.flatnonzero(_np.isnan(data))
            codes[nan] = encode(data[nan].tolist(), self.index, _np.int64)
        return codes


_NONE = _np.zeros(0, dtype=_np.intp)


class _FirstSeen:
    """Dense ids for int64 values below ``2**63 - 1``, in the order they
    are first seen.

    ``keys`` holds the values seen so far, sorted, then a sentinel above
    them all, and ``ids`` their ids: a batch of known values is one
    ``searchsorted`` away from its ids.
    """

    __slots__ = ("keys", "ids")

    def __init__(self) -> None:
        self.keys = _np.array([_np.iinfo(_np.int64).max], dtype=_np.int64)
        self.ids = _np.array([-1], dtype=_np.intp)

    def __call__(self, values: _np.ndarray
                 ) -> tuple[_np.ndarray, _np.ndarray]:
        """Each value's id, and the position of each new id's first
        value (ascending, so in the order of the new ids)."""
        keys = self.keys
        at = _np.searchsorted(keys, values)
        out = self.ids[at]
        miss = _np.flatnonzero(keys[at] != values)
        if not len(miss):
            return out, _NONE
        fresh, first, inverse = _np.unique(values[miss], return_index=True,
                                           return_inverse=True)
        order = _np.argsort(first)
        seen = len(keys) - 1
        fresh_ids = _np.empty(len(fresh), dtype=_np.intp)
        fresh_ids[order] = _np.arange(seen, seen + len(fresh))
        out[miss] = fresh_ids[inverse]
        spot = _np.searchsorted(keys, fresh)
        self.keys = _np.insert(keys, spot, fresh)
        self.ids = _np.insert(self.ids, spot, fresh_ids)
        return out, miss[first[order]]


class _Groups:
    """One execution's groups: key tuples by ordinal, and the codes that
    find them.

    A row's packed code starts as its first key's code; each further key
    packs on as ``(packed << 32) | code``, the packed code first made a
    dense id (``inner``) when a third key follows.  ``ordinals`` maps the
    whole packed code to the group.  A code or id counts the distinct
    values or combinations of one execution, far below ``2**31``, so a
    packed code is a non-negative int64.
    """

    __slots__ = ("keys", "columns", "inner", "ordinals")

    def __init__(self, width: int) -> None:
        #: Group ``g``'s key tuple is ``keys[g]``.
        self.keys: list[tuple] = [] if width else [()]
        self.columns = [_KeyCodes() for _ in range(width)]
        self.inner = [_FirstSeen() for _ in range(width - 2)]
        self.ordinals = _FirstSeen()


class HashAggregate(Operator):
    """Hash-based grouping; with ``group_by=[]`` it is a scalar aggregate."""

    def __init__(self, child: Operator, group_by: Sequence[str],
                 aggs: Sequence[AggSpec]):
        if not aggs and not group_by:
            raise PlanningError("aggregate needs group keys or aggregates")
        self.child = child
        self.group_by = list(group_by)
        self.aggs = list(aggs)
        self._group_positions = [
            child.schema.index_of(c) for c in self.group_by
        ]
        self.schema = Schema(
            aggregate_output_columns(child.schema, self.group_by, self.aggs)
        )

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def name(self) -> str:
        keys = ", ".join(self.group_by) or "<scalar>"
        funcs = ", ".join(f"{s.func}({s.column or '*'})" for s in self.aggs)
        return f"HashAggregate([{keys}] {funcs})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        folds = [_Fold(spec, self.child.schema) for spec in self.aggs]
        # Group ordinals in first-seen order; scalar aggregates emit one
        # row even on empty input.
        groups = _Groups(len(self.group_by))
        for fold in folds:
            fold.grow(len(groups.keys))
        for batch in self.child.batches(ctx):
            ctx.charge_hash(len(batch))
            ords = self._ordinals(batch, groups)
            for fold in folds:
                fold.add(batch, ords, len(groups.keys))
        rows = []
        for g, key in enumerate(groups.keys):
            ctx.charge_emit()
            rows.append(key + tuple(fold.result(g) for fold in folds))
        yield from chunked(self.schema.column_names, rows)

    def _ordinals(self, batch: Chunk, groups: _Groups) -> _np.ndarray:
        """Each row's group ordinal, adding unseen groups to ``groups``.

        No step runs per row: each key column's codes come whole (see
        :class:`_KeyCodes`), pack into one int64 per row, and map to
        ordinals by :class:`_FirstSeen`.  A group the batch brings gets
        the next ordinal in the order its first row appears, and its key
        tuple is that row's key values — the tuple, and the order, a
        row-by-row ``dict`` of key tuples keeps.
        """
        positions = self._group_positions
        if not positions:
            return _np.zeros(len(batch), dtype=_np.intp)
        codes = [key.codes(batch, p)
                 for key, p in zip(groups.columns, positions)]
        packed = codes[0]
        for i, more in enumerate(codes[1:]):
            if i:
                packed = groups.inner[i - 1](packed)[0]
            packed = (packed << 32) | more
        ords, first = groups.ordinals(packed)
        if len(first):
            groups.keys.extend(batch.project(positions, self.group_by)
                               .take(first).to_rows())
        return ords

"""Group-by and scalar aggregation.

A :class:`HashAggregate` with an empty group-by acts as a scalar aggregate
that always emits exactly one row — the shape of TPC-H Q6.  An aggregate
reads a plain column or a computed value (a ``chunk -> ColumnData``
function from :mod:`repro.exec.values`), covering forms like
``sum(l_extendedprice * (1 - l_discount))``.

Each batch is folded once: its group ordinals come from the key columns,
and each spec folds its values into per-group state indexed by ordinal.
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
from repro.storage.chunk import ColumnData
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
        index: dict[tuple, int] = {} if self.group_by else {(): 0}
        for fold in folds:
            fold.grow(len(index))
        for batch in self.child.batches(ctx):
            ctx.charge_hash(len(batch))
            ords = self._ordinals(batch, index)
            for fold in folds:
                fold.add(batch, ords, len(index))
        rows = []
        for key, g in index.items():
            ctx.charge_emit()
            rows.append(key + tuple(fold.result(g) for fold in folds))
        yield from chunked(self.schema.column_names, rows)

    def _ordinals(self, batch: Chunk, index: dict[tuple, int]) -> _np.ndarray:
        """Each row's group ordinal, adding unseen keys to ``index``."""
        if not self.group_by:
            return _np.zeros(len(batch), dtype=_np.intp)
        keys = zip(*[batch.column_values(p) for p in self._group_positions],
                   strict=True)
        ords = []
        for key in keys:
            g = index.get(key)
            if g is None:
                g = index[key] = len(index)
            ords.append(g)
        return _np.asarray(ords, dtype=_np.intp)

"""Columnar batch chunks: the unit of vectorized execution.

A :class:`Chunk` is a batch of rows stored column-wise: each column is
either a NumPy array (INT/BIGINT/DATE columns become ``int64``, FLOAT
columns ``float64``) or a plain Python list — an *object column*.  Which
one is decided by the data, not the platform: CHAR columns, NULL-bearing
columns, computed values, and anything whose values do not round-trip
through a fixed-width array (e.g. integers outside the ``int64`` range)
are object columns.  An object column of a heap image is a
:class:`CodedColumn`: a plain list that also carries its *dictionary* —
its distinct values and one small-int code per row — built lazily, the
first time a group-by asks, and kept for the life of that payload (a
heap fold makes a new payload, so codes are never stale).

An optional *selection vector* names the positions that are logically
present, so a filter can narrow a chunk by a boolean mask without
copying column data — and a scan can hand out a batch as
*positions* over the heap's one table-wide chunk
(:meth:`~repro.storage.heap.HeapFile.image`): the payload of a column
moves once, at the first consumer that reads it, and the columns nobody
reads never move.

Chunks are row-compatible by construction: they implement the read-only
sequence protocol over rows (``len``, iteration, indexing, slicing), and
:meth:`Chunk.from_rows` / :meth:`Chunk.to_rows` round-trip exactly —
``Chunk.from_rows(names, rows).to_rows() == rows`` for any well-typed
rows, including ``None`` values and CHAR strings of any width.  Row
materialization converts array scalars back to built-in Python values
(``tolist``), so consumers never observe NumPy scalar types.

NumPy is a declared dependency.  Simulated costs never flow through this
module — a chunk is pure representation, which is what keeps columnar
execution invisible to the cost model.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

import numpy as _np

from repro.storage.types import Row, Schema

#: A column payload: an array (numeric) or a plain list (object column).
ColumnData = Union[_np.ndarray, list]

#: A boolean mask over a chunk's logical rows.
Mask = _np.ndarray

#: Up to this many selected rows, :meth:`Chunk.to_rows` reads values one
#: by one instead of gathering whole columns.
_FEW_ROWS = 4


def typed_column(values: Sequence) -> ColumnData:
    """Build one column: a typed array when exact, else an object list.

    Only values that round-trip bitwise take the array path: ``int``
    (not ``bool``, and within ``int64``) and ``float``.  Everything else
    — strings, ``None``, mixed types, big ints — stays an object list.
    """
    values = list(values)
    array = _exact_array(values)
    return values if array is None else array


def _exact_array(values: Sequence) -> "_np.ndarray | None":
    """``values`` as an int64 or float64 array when that is exact.

    The type check runs in C (``set(map(type, ...))``): exactly one
    type, ``int`` or ``float``, and ``bool`` is not ``int``.
    """
    if not values:
        return None
    kind = type(values[0])
    if kind not in (int, float) or set(map(type, values)) != {kind}:
        return None
    if kind is float:
        return _np.array(values, dtype=_np.float64)
    try:
        return _np.array(values, dtype=_np.int64)
    except OverflowError:
        return None


#: The array dtypes typing gives: an array of either joins as it comes.
_EXACT_DTYPES = (_np.dtype(_np.int64), _np.dtype(_np.float64))


def _is_array(col) -> bool:
    """True when ``col`` is a NumPy array column."""
    return isinstance(col, _np.ndarray)


class CodedColumn(list):
    """An object column of a heap image: a plain list that knows its
    dictionary.

    :meth:`dictionary` gives the column's distinct values (by Python
    equality, in first-seen order) and one code per row, the row's
    value's position among them, in the narrowest unsigned dtype that
    holds them.  It is built the first time somebody asks and kept: the
    payload is never mutated (a heap fold builds a new one), so the codes
    never go stale.  Everything else reads it as the list it is.
    """

    __slots__ = ("_dictionary",)

    def dictionary(self) -> "tuple[list, _np.ndarray]":
        """``(values, codes)``, built once."""
        try:
            return self._dictionary
        except AttributeError:
            pass
        index: dict = {}
        codes = encode(self, index)
        self._dictionary = (list(index), codes)
        return self._dictionary


def encode(values: list, index: dict, dtype=None) -> _np.ndarray:
    """Each value's code in ``index`` (value -> code, by Python equality);
    values it lacks join it with the next codes, in first-seen order.

    The loops over ``values`` run in C (``dict.fromkeys``, ``map``); only
    the distinct values take a Python step.  ``dtype`` defaults to the
    narrowest unsigned type that holds every code.
    """
    first = dict.fromkeys(values)
    for value in first:
        first[value] = index.setdefault(value, len(index))
    return _np.fromiter(map(first.__getitem__, values), count=len(values),
                        dtype=dtype or _np.min_scalar_type(len(index)))


def extend_column(col: ColumnData, values: "Sequence | _np.ndarray",
                  ) -> ColumnData:
    """``col`` followed by ``values`` (a sequence or an array the caller
    hands over) — what typing them together gives.

    The old part is never re-typed from its values: an array stays an
    array when the new values type to the same dtype, and otherwise both
    halves fall back to one object list, exactly as
    :func:`typed_column` over all the values would decide.  An int64 or
    float64 array is already typed; any other array is typed from its
    built-in values.  An object result is a :class:`CodedColumn` of
    built-in values, copied once from the two halves.
    """
    if _is_array(values) and values.dtype not in _EXACT_DTYPES:
        values = values.tolist()
    tail = values if _is_array(values) else _exact_array(values)
    if tail is not None:
        if not len(col):
            return tail
        if _is_array(col) and col.dtype == tail.dtype:
            return _np.concatenate((col, tail))
    out = CodedColumn(col.tolist() if _is_array(col) else col)
    out += values.tolist() if _is_array(values) else values
    return out


def select(array: _np.ndarray, sel) -> _np.ndarray:
    """The rows of ``array`` a selection vector names (``None``: all; a
    ``range`` reads as a view)."""
    if sel is None:
        return array
    if type(sel) is range:
        return array[sel.start:sel.stop]
    return array[sel if _is_array(sel) else _np.asarray(sel, dtype=_np.intp)]


class Chunk:
    """A columnar batch: named columns plus an optional selection vector.

    ``columns`` holds one entry per schema column over the chunk's
    *physical* rows; ``sel`` (positions into the physical rows in output
    order — an index array, a list, or a ``range`` for a contiguous
    slice — or ``None`` for "all") defines the logical view every
    sequence-protocol method exposes.  Construction never copies column
    data — :meth:`take`, :meth:`project` and slicing share the backing
    columns, and a ``range`` selection reads array columns as views.
    """

    __slots__ = ("names", "columns", "sel", "_length", "_rows", "_compact")

    def __init__(self, names: Sequence[str], columns: Sequence[ColumnData],
                 sel=None):
        self.names = tuple(names)
        # Shared, never mutated: derived chunks reuse the one list.
        self.columns = columns if type(columns) is list else list(columns)
        self.sel = sel
        if sel is not None:
            self._length = len(sel)
        else:
            self._length = len(columns[0]) if columns else 0
        self._rows: list[Row] | None = None
        #: Per-column cache of sel-compacted payloads.
        self._compact: dict[int, ColumnData] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, names: "Sequence[str] | Schema",
                  rows: Sequence[Row]) -> "Chunk":
        """Build a chunk from rows; columns are typed where exact."""
        if isinstance(names, Schema):
            names = names.column_names
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return cls(names, [[] for _ in names])
        transposed = list(zip(*rows, strict=False))
        chunk = cls(names, [typed_column(col) for col in transposed])
        chunk._rows = rows  # already materialized; reuse on to_rows()
        return chunk

    @classmethod
    def from_columns(cls, names: Sequence[str],
                     columns: Sequence[ColumnData]) -> "Chunk":
        """Wrap pre-built column payloads (no copying, no type sniffing)."""
        return cls(names, columns)

    @staticmethod
    def concat(chunks: "Sequence[Chunk]") -> "Chunk":
        """Concatenate chunks of one layout into one chunk.

        Parts over the same column payloads (say, selections of one heap
        image) join their selections, and no payload moves: contiguous
        ``range`` parts join into one ``range``, so adjacent extents
        still read as one slice.  Otherwise the result is compacted.  Rows
        every part already built are kept, not built again."""
        if len(chunks) == 1:
            return chunks[0]
        first = chunks[0]
        if all(c.columns is first.columns
               or len(c.columns) == len(first.columns)
               and all(a is b for a, b in zip(c.columns, first.columns))
               for c in chunks[1:]):
            out = Chunk(first.names, first.columns,
                        sel=_joined_selection(chunks))
        else:
            columns: list[ColumnData] = []
            for i in range(len(first.columns)):
                parts = [c.data_column(i) for c in chunks]
                if all(_is_array(p) for p in parts):
                    columns.append(_np.concatenate(parts))
                else:
                    merged: list = []
                    for p in parts:
                        merged.extend(p.tolist() if _is_array(p) else p)
                    columns.append(merged)
            out = Chunk(first.names, columns)
        if all(c._rows is not None for c in chunks):
            out._rows = [row for c in chunks for row in c._rows]
        return out

    # -- the row-compat sequence protocol ----------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.to_rows())

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(self._length)
            if step != 1:
                return self.take(list(range(start, stop, step)))
            # A contiguous slice is a ``range`` selection (always step
            # 1): no column is touched until a consumer reads it, and
            # rows the producer already built are not built again.
            sel = self.sel
            part = Chunk(self.names, self.columns,
                         sel=range(start, max(start, stop)) if sel is None
                         else sel[start:stop])
            if self._rows is not None:
                part._rows = self._rows[start:stop]
            return part
        return self.to_rows()[item]

    def to_rows(self) -> list[Row]:
        """Materialize (and cache) the logical rows as plain tuples.

        A few selected rows are read value by value (``ndarray.item``
        gives the built-in scalar ``tolist`` would); otherwise a ``range``
        selection slices each column and any other gathers it."""
        if self._rows is not None:
            return self._rows
        sel = self.sel
        if type(sel) is not range and sel is not None \
                and len(sel) <= _FEW_ROWS:
            reads = [c.item if _is_array(c) else c.__getitem__
                     for c in self.columns]
            self._rows = [tuple([read(j) for read in reads]) for j in (
                sel.tolist() if _is_array(sel) else sel)]
            return self._rows
        if type(sel) is range:
            cols = [c[sel.start:sel.stop] for c in self.columns]
        else:
            cols = [self.data_column(i) for i in range(len(self.columns))]
        self._rows = list(zip(*[c.tolist() if _is_array(c) else c
                                for c in cols])) if cols else []
        return self._rows

    # -- columnar access ---------------------------------------------------

    def data_column(self, i: int) -> ColumnData:
        """Column ``i`` of the logical view (selection applied), cached."""
        col = self.columns[i]
        sel = self.sel
        if sel is None:
            return col
        cached = self._compact.get(i)
        if cached is None:
            if type(sel) is range:
                cached = col[sel.start:sel.stop]
            elif _is_array(col):
                cached = select(col, sel)
            else:
                # Python ints index a list faster than NumPy scalars.
                cached = list(map(col.__getitem__, sel.tolist()
                                  if _is_array(sel) else sel))
            self._compact[i] = cached
        return cached

    def array(self, i: int):
        """Column ``i`` as an ndarray, or ``None`` for object columns."""
        col = self.data_column(i)
        return col if _is_array(col) else None

    def column_values(self, i: int) -> list:
        """Column ``i`` of the logical view as a plain Python list."""
        col = self.data_column(i)
        return col.tolist() if _is_array(col) else col

    def positions(self) -> _np.ndarray:
        """The physical rows of the logical view, in order, as an array."""
        sel = self.sel
        if type(sel) is _np.ndarray:
            return sel
        if sel is None:
            return _np.arange(self._length)
        if type(sel) is range:
            return _np.arange(sel.start, sel.stop)
        return _np.asarray(sel, dtype=_np.intp)

    # -- derivation (no data copies) ---------------------------------------

    def take(self, indices) -> "Chunk":
        """A chunk narrowed to ``indices`` (positions in the logical view)."""
        sel = self.sel
        if sel is None:
            new_sel = indices
        elif type(sel) is range:
            new_sel = _np.asarray(indices, dtype=_np.intp) + sel.start
        elif _is_array(sel):
            new_sel = sel[_np.asarray(indices, dtype=_np.intp)] \
                if not _is_array(indices) else sel[indices]
        else:
            new_sel = list(map(sel.__getitem__, indices.tolist()
                               if _is_array(indices) else indices))
        return Chunk(self.names, self.columns, sel=new_sel)

    def filter(self, mask: Mask) -> "Chunk | None":
        """Narrow by a boolean mask over the logical view; None if empty.

        Returns ``self`` unchanged when every row passes, so the common
        all-pass case (e.g. a 100%-selectivity sweep point) stays free.
        """
        idx = mask_nonzero(mask)
        n = len(idx)
        if n == 0:
            return None
        if n == self._length:
            return self
        return self.take(idx)

    def project(self, positions: Sequence[int],
                names: Sequence[str]) -> "Chunk":
        """A chunk of the given columns, sharing payloads and selection."""
        columns = self.columns
        chunk = Chunk(names, [columns[p] for p in positions], sel=self.sel)
        if self._compact:
            for out_i, p in enumerate(positions):
                cached = self._compact.get(p)
                if cached is not None:
                    chunk._compact[out_i] = cached
        return chunk

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = "".join(
            "a" if _is_array(c) else "o" for c in self.columns
        )
        return (f"Chunk({len(self)} rows x {len(self.columns)} cols "
                f"[{kinds}]{'' if self.sel is None else ', sel'})")


def _joined_selection(chunks: "Sequence[Chunk]"):
    """The selections of ``chunks`` (over one payload) back to back: one
    ``range`` when each part is a ``range`` starting where the last one
    stopped, else one position array."""
    sels = [c.sel for c in chunks]
    if all(type(sel) is range for sel in sels) and all(
            a.stop == b.start for a, b in zip(sels, sels[1:])):
        return range(sels[0].start, sels[-1].stop)
    return _np.concatenate([c.positions() for c in chunks])


# -- mask helpers ----------------------------------------------------------


def mask_and(a: Mask | None, b: Mask | None) -> Mask | None:
    """Conjunction of two masks; ``None`` means all-true."""
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def mask_or(a: Mask | None, b: Mask | None) -> Mask | None:
    """Disjunction of two masks; ``None`` means all-true."""
    if a is None or b is None:
        return None
    return a | b


def mask_all(m: Mask | None) -> bool:
    """True when every row passes (``None`` means all-true)."""
    return m is None or bool(m.all())


def mask_nonzero(m: Mask) -> _np.ndarray:
    """Ascending positions a mask passes."""
    return _np.nonzero(m)[0]


def mask_from_bools(values: Iterable[bool], n: int) -> Mask:
    """Materialize an iterable of booleans as a mask of length ``n``."""
    return _np.fromiter(values, dtype=bool, count=n)

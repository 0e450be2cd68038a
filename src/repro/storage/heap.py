"""Heap files: page-ordered row storage, kept once, as columns.

A :class:`HeapFile` is the physical body of a table.  It never charges
I/O itself; all timed access flows through the
:class:`~repro.storage.buffer.BufferPool` so that repeated-page effects
(the index scan's downfall) are modeled faithfully.

The rows live in exactly one place: the *image*, a table-wide
:class:`~repro.storage.chunk.Chunk` in physical order (row
``page * tuples_per_page + slot``, a position that is the row's TID).
A load that has its rows as columns hands the heap a ``Chunk``, and each
column joins the image as it comes (an int64 or float64 array is kept,
not copied).  Rows appended one by one wait as tuples in one pending
block, which is transposed and joined onto the image the same way —
never rebuilt — when it reaches :data:`BLOCK_PAGES` pages and whenever
somebody reads, so a load never holds the table both as tuples and as
columns.  A page is arithmetic: every page but the last is full, and
there are ``ceil(row_count / tuples_per_page)`` of them.  Every columnar
batch a scan emits is a slice of the image or a selection vector over
it, and the payload reads everybody else uses are :meth:`HeapFile.row`
for one row and ``image().take(positions).to_rows()`` for many; there
is nothing to cache per page or per extent and nothing to invalidate.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import StorageError
from repro.storage.chunk import Chunk, extend_column
from repro.storage.types import Row, Schema

#: Pages of appended rows that wait as tuples before they are typed.
BLOCK_PAGES = 256


class HeapFile:
    """Append-only paged storage for rows of one schema."""

    def __init__(self, file_id: int, schema: Schema, tuples_per_page: int):
        if tuples_per_page < 1:
            raise StorageError("tuples_per_page must be >= 1")
        self.file_id = file_id
        self.schema = schema
        self.tuples_per_page = tuples_per_page
        self._row_count = 0
        #: The columnar image of rows ``[0, len(self._image))``.
        self._image = Chunk(schema.column_names,
                            [[] for _ in schema.column_names])
        #: Rows ``[len(self._image), row_count)``, not yet typed.
        self._pending: list[Row] = []
        #: One scalar read per image column (see :meth:`row`).
        self._readers: list = []

    @property
    def num_pages(self) -> int:
        """Number of pages the rows fill (``#P`` in the cost model)."""
        return -(-self._row_count // self.tuples_per_page)

    @property
    def row_count(self) -> int:
        """Number of stored rows (``#T`` in the cost model)."""
        return self._row_count

    def append(self, row: Row) -> int:
        """Store ``row`` at the end of the heap; returns its position
        (its TID)."""
        self.extend((row,))
        return self._row_count - 1

    def extend(self, rows: "Iterable[Row] | Chunk") -> int:
        """Store ``rows`` at the end of the heap; returns how many.

        A :class:`~repro.storage.chunk.Chunk` whose names are the
        schema's joins the image column by column, after any pending
        rows (an int64 or float64 array it holds becomes the heap's, so
        nobody writes to it afterwards); one whose arity or names differ
        stores nothing.  Other
        rows are validated as they arrive; the rows before one that
        fails stay stored.
        """
        if isinstance(rows, Chunk):
            return self._extend_columns(rows)
        validate = self.schema.validate_row
        pending = self._pending
        block = BLOCK_PAGES * self.tuples_per_page
        before = self._row_count
        try:
            for row in rows:
                validate(row)
                pending.append(row)
                if len(pending) >= block:
                    self._fold()
        finally:
            self._row_count = len(self._image) + len(pending)
        return self._row_count - before

    def _extend_columns(self, chunk: Chunk) -> int:
        """The :class:`~repro.storage.chunk.Chunk` case of :meth:`extend`."""
        names = self.schema.column_names
        if chunk.names != names:
            raise StorageError(
                f"chunk columns {chunk.names} (arity {len(chunk.names)}) "
                f"do not match schema columns {names} (arity {len(names)})"
            )
        columns = [chunk.data_column(i) for i in range(len(names))]
        if any(len(col) != len(chunk) for col in columns):
            raise StorageError("chunk columns differ in length")
        if self._pending:
            self._fold()
        if len(chunk):
            self._join(columns)
            self._row_count = len(self._image)
        return len(chunk)

    def _fold(self) -> None:
        """Transpose the pending block and join it onto the image.

        One column at a time: a single transient value list, not a
        transposed copy of the block (``zip(*block)`` would also hold an
        iterator per row)."""
        block = self._pending
        self._join([row[i] for row in block]
                   for i in range(len(self._image.names)))
        block.clear()

    def _join(self, columns: Iterable) -> None:
        """Join one value sequence (or array) per column onto the image.

        The rows already in the image are copied over, never re-typed,
        and chunks handed out earlier stay valid — rows never move.
        Each object column is a new
        :class:`~repro.storage.chunk.CodedColumn`, so a dictionary built
        over the old payload stays with the chunks that hold it.
        """
        image = self._image
        image = self._image = Chunk(image.names, [
            extend_column(col, values)
            for col, values in zip(image.columns, columns)
        ])
        # ``ndarray.item`` hands back the built-in value ``tolist`` would.
        self._readers = [col.__getitem__ if isinstance(col, list)
                         else col.item for col in image.columns]

    def image(self) -> Chunk:
        """The whole heap as one columnar chunk, in physical order.

        Callers only read — and read a part of it (a slice, a ``take``):
        ``to_rows()`` on the image itself would cache a tuple per row on
        the one chunk that lives as long as the table.
        """
        if self._pending:
            self._fold()
        return self._image

    def row(self, pos: int) -> Row:
        """Row ``pos`` (``page * tuples_per_page + slot``, in range) as a
        tuple of built-in values, without charging I/O."""
        if self._pending:
            self._fold()
        return tuple([read(pos) for read in self._readers])

    def run_chunk(self, start: int, n: int, names: object = None) -> Chunk:
        """Pages ``[start, start + n)`` as a zero-copy slice of the image.

        Callers still charge I/O and CPU through the execution context —
        this is pure payload access.  ``names`` is ignored: the frozen
        ``perf/probes.py`` still passes the schema's column names, which
        is what the image carries anyway.
        """
        per_page = self.tuples_per_page
        return self.image()[start * per_page:(start + n) * per_page]

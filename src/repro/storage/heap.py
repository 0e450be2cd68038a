"""Heap files: page-ordered row storage.

A :class:`HeapFile` is the physical body of a table — an append-only list
of :class:`~repro.storage.page.HeapPage`.  It never charges I/O itself;
all timed access flows through the :class:`~repro.storage.buffer.BufferPool`
so that repeated-page effects (the index scan's downfall) are modeled
faithfully.

Beside the row tuples on its pages, a heap keeps exactly one columnar
representation: the *image*, a table-wide :class:`~repro.storage.chunk.
Chunk` in physical order (row ``page * tuples_per_page + slot``), built
on first columnar access and extended — never rebuilt — after appends.
Every columnar batch a scan emits is a slice of it or a selection vector
over it, so there is nothing to cache per page or per extent and nothing
to invalidate but the row watermark.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import StorageError, UnknownPageError
from repro.storage.chunk import Chunk, extend_column
from repro.storage.page import HeapPage
from repro.storage.types import Row, Schema, TID


class HeapFile:
    """Append-only paged storage for rows of one schema."""

    def __init__(self, file_id: int, schema: Schema, tuples_per_page: int):
        if tuples_per_page < 1:
            raise StorageError("tuples_per_page must be >= 1")
        self.file_id = file_id
        self.schema = schema
        self.tuples_per_page = tuples_per_page
        self._pages: list[HeapPage] = []
        self._row_count = 0
        #: The columnar image of rows ``[0, len(self._image))``.
        self._image = Chunk(schema.column_names,
                            [[] for _ in schema.column_names])

    @property
    def num_pages(self) -> int:
        """Number of allocated pages (``#P`` in the cost model)."""
        return len(self._pages)

    @property
    def row_count(self) -> int:
        """Number of stored rows (``#T`` in the cost model)."""
        return self._row_count

    def append(self, row: Row) -> TID:
        """Store ``row`` at the end of the heap; returns its TID."""
        self.schema.validate_row(row)
        if not self._pages or self._pages[-1].is_full:
            self._pages.append(
                HeapPage(page_id=len(self._pages), capacity=self.tuples_per_page)
            )
        page = self._pages[-1]
        slot = page.insert(row)
        self._row_count += 1
        return TID(page.page_id, slot)

    def image(self) -> Chunk:
        """The whole heap as one columnar chunk, in physical order.

        Built one column at a time (a single transient value list, not a
        transposed copy of the table) and brought up to date from the row
        watermark: rows appended since the last call are typed on their
        own and joined on, so a table that is synced by appends never
        pays for its old rows again.  Chunks handed out earlier stay
        valid — rows never move.  Callers only read.
        """
        image = self._image
        if len(image) != self._row_count:
            first, skip = divmod(len(image), self.tuples_per_page)
            tail = self._pages[first].all_rows()[skip:]
            for page in self._pages[first + 1:]:
                tail.extend(page.all_rows())
            image = self._image = Chunk(image.names, [
                extend_column(col, [row[i] for row in tail])
                for i, col in enumerate(image.columns)
            ])
        return image

    def run_chunk(self, start: int, n: int, names: object = None) -> Chunk:
        """Pages ``[start, start + n)`` as a zero-copy slice of the image.

        Callers still charge I/O and CPU through the execution context —
        this is pure payload access, like :meth:`page`.  ``names`` is
        ignored: the frozen ``perf/probes.py`` still passes the schema's
        column names, which is what the image carries anyway.
        """
        per_page = self.tuples_per_page
        return self.image()[start * per_page:(start + n) * per_page]

    def page(self, page_id: int) -> HeapPage:
        """Return page ``page_id`` without charging I/O."""
        if not 0 <= page_id < len(self._pages):
            raise UnknownPageError(
                f"page {page_id} outside heap of {len(self._pages)} pages"
            )
        return self._pages[page_id]

    def fetch(self, tid: TID) -> Row:
        """Return the row named by ``tid`` without charging I/O."""
        return self.page(tid.page_id).get(tid.slot)

    def iter_pages(self) -> Iterator[HeapPage]:
        """Yield pages in physical order (full-scan order)."""
        return iter(self._pages)

    def iter_rows(self) -> Iterator[tuple[TID, Row]]:
        """Yield ``(TID, row)`` in physical order, charging no I/O."""
        for page in self._pages:
            for slot, row in page.rows_with_slots():
                yield TID(page.page_id, slot), row

"""Heap pages: fixed-capacity windows onto their heap's rows.

A :class:`HeapPage` names up to ``tuples_per_page`` consecutive rows of a
:class:`~repro.storage.heap.HeapFile` — page ``p`` is rows
``[p * tuples_per_page, p * tuples_per_page + n)`` — and stores none of
them: every read goes to the heap, which keeps each row exactly once.
Slots are append-only (this reproduction never deletes), so slot numbers
are stable and a :class:`~repro.storage.types.TID` uniquely names a row
forever.  Rows arrive through the heap, which opens pages and keeps the
last one's row count current.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.errors import StorageError
from repro.storage.types import Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.heap import HeapFile


class HeapPage:
    """One fixed-capacity page: ``n`` rows of ``heap`` from ``page_id``."""

    __slots__ = ("_heap", "page_id", "n")

    def __init__(self, heap: "HeapFile", page_id: int, n: int):
        self._heap = heap
        self.page_id = page_id
        #: Rows on the page; only the heap's last page is ever short.
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Row]:
        return iter(self.all_rows())

    @property
    def is_full(self) -> bool:
        """True when no slot is free."""
        return self.n >= self._heap.tuples_per_page

    def get(self, slot: int) -> Row:
        """Return the row in ``slot``; raises StorageError if unused."""
        if not 0 <= slot < self.n:
            raise StorageError(
                f"slot {slot} not in use on page {self.page_id} "
                f"({self.n} rows)"
            )
        heap = self._heap
        return heap.row(self.page_id * heap.tuples_per_page + slot)

    def all_rows(self) -> list[Row]:
        """The page's rows in slot order (``rows[slot]`` is slot's row).

        A new list each call: one gather out of the heap image.  A reader
        that wants a few rows of many pages gathers them in one
        ``heap.image().take(positions).to_rows()`` instead.
        """
        return self._heap.run_chunk(self.page_id, 1).to_rows()

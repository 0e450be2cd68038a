"""Tables: a schema, a heap file, and any secondary indexes.

A :class:`Table` owns no I/O accounting; operators reach its heap through
the buffer pool.  Secondary indexes are registered by column name — the
paper's micro-benchmark table has a primary-key index on ``c1`` and a
non-clustered index on ``c2``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import StorageError
from repro.storage.chunk import Chunk, ColumnData
from repro.storage.heap import HeapFile
from repro.storage.types import Row, Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.index.btree import BTreeIndex


class Table:
    """A named relation with heap storage and optional secondary indexes."""

    def __init__(self, name: str, schema: Schema, heap: HeapFile):
        self.name = name
        self.schema = schema
        self.heap = heap
        self.indexes: dict[str, "BTreeIndex"] = {}

    @property
    def row_count(self) -> int:
        """Number of stored rows (``#T``)."""
        return self.heap.row_count

    @property
    def num_pages(self) -> int:
        """Number of heap pages (``#P``)."""
        return self.heap.num_pages

    def insert(self, row: Row) -> int:
        """Append one row, maintaining all registered indexes; returns
        its position (its TID)."""
        tid = self.heap.append(row)
        for column, index in self.indexes.items():
            index.insert(row[self.schema.index_of(column)], tid)
        return tid

    def insert_many(self, rows: "Iterable[Row] | Chunk") -> int:
        """Append many rows (or one chunk of them); returns how many were
        stored.

        The heap takes them in bulk; the registered indexes then learn
        the new rows' keys from the image — also when a bad row stops
        the load part-way, so heap and indexes never disagree.
        """
        heap = self.heap
        first = heap.row_count
        try:
            return heap.extend(rows)
        finally:
            if self.indexes and heap.row_count > first:
                new = heap.image()[first:]
                for column, index in self.indexes.items():
                    keys = new.column_values(self.schema.index_of(column))
                    for tid, key in enumerate(keys, first):
                        index.insert(key, tid)

    def index_on(self, column: str) -> "BTreeIndex":
        """Return the index on ``column``; raises StorageError if absent."""
        try:
            return self.indexes[column]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no index on {column!r} "
                f"(indexed: {sorted(self.indexes)})"
            ) from None

    def has_index(self, column: str) -> bool:
        """True if a secondary index exists on ``column``."""
        return column in self.indexes

    def column_values(self, column: str) -> ColumnData:
        """One column in heap order, as the heap image holds it.

        An array where the values typed to one (see
        :mod:`~repro.storage.chunk`), an object list otherwise; read
        only, no I/O charged.  Used by statistics collection and index
        builds, which the paper treats as offline activity outside
        measured runs.
        """
        return self.heap.image().columns[self.schema.index_of(column)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Table({self.name!r}, rows={self.row_count}, "
            f"pages={self.num_pages}, indexes={sorted(self.indexes)})"
        )

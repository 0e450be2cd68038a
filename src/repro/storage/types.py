"""Logical types: columns, schemas, rows and tuple identifiers.

Rows are plain Python tuples; a :class:`Schema` describes their layout and
computes the on-page byte size that drives all page-geometry math.  Column
byte sizes follow PostgreSQL: 4-byte integers and dates, 8-byte bigints and
floats, fixed-size ``CHAR(n)`` strings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import StorageError

Row = tuple
"""A stored row: a plain Python tuple, one value per schema column."""


class ColumnType(enum.Enum):
    """Supported column types with fixed on-page sizes."""

    INT = "int"        # 4 bytes, like PostgreSQL integer
    BIGINT = "bigint"  # 8 bytes
    FLOAT = "float"    # 8 bytes, double precision
    DATE = "date"      # 4 bytes, stored as days since epoch (an int)
    CHAR = "char"      # fixed length, requires Column.length

    def byte_size(self, length: int | None = None) -> int:
        """On-page size in bytes; CHAR requires an explicit ``length``."""
        if self is ColumnType.CHAR:
            if length is None or length <= 0:
                raise StorageError("CHAR columns need a positive length")
            return length
        return _FIXED_SIZES[self]


#: On-page byte sizes of the fixed-width types.
_FIXED_SIZES = {
    ColumnType.INT: 4,
    ColumnType.BIGINT: 8,
    ColumnType.FLOAT: 8,
    ColumnType.DATE: 4,
}


@dataclass(frozen=True)
class Column:
    """One column: a name, a type, and (for CHAR) a length in bytes."""

    name: str
    ctype: ColumnType = ColumnType.INT
    length: int | None = None

    @property
    def byte_size(self) -> int:
        """On-page size of one value of this column."""
        return self.ctype.byte_size(self.length)


class Schema:
    """An ordered collection of columns plus derived layout facts.

    The byte size of a row is the sum of column sizes plus the per-tuple
    header overhead supplied by the engine configuration; the header is
    added by :meth:`tuple_size`, keeping the schema config-independent.
    """

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise StorageError("a schema needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise StorageError(f"duplicate column names in schema: {names}")
        self._columns = tuple(columns)
        self._index = {c.name: i for i, c in enumerate(self._columns)}
        self._names = tuple(c.name for c in self._columns)
        # Summed on first use, not here: derived schemas may carry CHAR
        # columns of no declared length (a string literal in a select
        # list) and are never laid out on a page.
        self._payload_bytes: int | None = None

    @classmethod
    def of_ints(cls, names: Iterable[str]) -> "Schema":
        """Build an all-INT schema (the micro-benchmark layout)."""
        return cls([Column(n, ColumnType.INT) for n in names])

    @property
    def columns(self) -> tuple[Column, ...]:
        """The columns in declaration order."""
        return self._columns

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in declaration order."""
        return self._names

    def __len__(self) -> int:
        return len(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def index_of(self, name: str) -> int:
        """Position of column ``name``; raises StorageError if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise StorageError(
                f"no column {name!r} in schema {self.column_names}"
            ) from None

    def has_column(self, name: str) -> bool:
        """True if a column with this name exists."""
        return name in self._index

    def payload_bytes(self) -> int:
        """Sum of column byte sizes, excluding the tuple header."""
        size = self._payload_bytes
        if size is None:
            size = self._payload_bytes = sum(
                c.byte_size for c in self._columns)
        return size

    def tuple_size(self, tuple_header: int) -> int:
        """Full on-page size of one row, including the header overhead."""
        return self.payload_bytes() + tuple_header

    def validate_row(self, row: Row) -> None:
        """Check arity; raises StorageError on mismatch."""
        if len(row) != len(self._columns):
            raise StorageError(
                f"row arity {len(row)} does not match schema arity "
                f"{len(self._columns)}"
            )

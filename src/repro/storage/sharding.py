"""Horizontal partitioning: the shard catalog behind parallel scans.

A :class:`ShardSet` records how one logical table was split into N
physical shard tables — each with its own heap file, its own secondary
indexes on the same columns as the parent, and its own (fresh)
statistics.  Two partitioning schemes are supported:

* ``round_robin`` — row *i* (in heap order) goes to shard ``i % N``.
  Shards are balanced to within one row regardless of value skew; range
  predicates hit every shard.
* ``range`` — rows are split on one column at row-count-balanced
  boundaries (quantile split keys over the stored values), so a
  selective range predicate can be answered by a subset of shards and
  each shard covers a disjoint key interval.

Shard tables are named ``{table}#{i}`` and registered in the database's
*shard* catalog, deliberately outside the primary table catalog: they
are an execution artifact of the parent table, invisible to ``FROM``
clauses and to buffer-pool auto-sizing (which must keep the unsharded
cache geometry so serial measurements stay comparable).

The physical registration — file-id allocation, heap construction,
index builds, statistics — lives in :meth:`repro.database.Database.
shard_table`; this module owns the partitioning decisions themselves so
they are testable without an engine instance.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as _np

from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.table import Table

#: The partitioning schemes the shard catalog understands.
SHARD_SCHEMES = ("round_robin", "range")


def shard_table_name(table_name: str, shard_index: int) -> str:
    """The physical name of one shard: ``{table}#{i}``.

    ``#`` cannot appear in a SQL identifier, so shard tables can never
    collide with (or be addressed as) user tables.
    """
    return f"{table_name}#{shard_index}"


@dataclass(frozen=True)
class ShardSet:
    """One logical table's registered partitioning.

    Attributes:
        table_name: the parent (logical) table.
        scheme: ``"round_robin"`` or ``"range"``.
        column: the partitioning column (``None`` for round-robin).
        shards: the physical shard tables, in shard order.
        bounds: for range partitioning, the split keys — shard *i*
            holds rows with ``bounds[i-1] <= value < bounds[i]`` (first
            and last shards unbounded below/above).  Empty for
            round-robin.
    """

    table_name: str
    scheme: str
    column: str | None
    shards: tuple["Table", ...]
    bounds: tuple = ()

    @property
    def num_shards(self) -> int:
        """How many shards the table was split into."""
        return len(self.shards)

    def describe(self) -> str:
        """One-line summary of the partitioning."""
        on = f" on {self.column}" if self.column else ""
        return (f"{self.table_name}: {self.num_shards} shards, "
                f"{self.scheme}{on}")


def validate_sharding(num_shards: int, scheme: str) -> None:
    """Reject impossible partitionings before any work happens."""
    if num_shards < 1:
        raise StorageError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    if scheme not in SHARD_SCHEMES:
        known = ", ".join(SHARD_SCHEMES)
        raise StorageError(
            f"unknown sharding scheme {scheme!r}; known schemes: {known}"
        )


def range_split_keys(values: list, num_shards: int) -> tuple:
    """Row-count-balanced split keys for range partitioning.

    Sorts the stored values and takes the N-1 quantile boundaries, so
    shards are balanced even under value skew (equal-*width* splits
    would not be).  Deterministic for a given table state.
    """
    if num_shards <= 1 or not values:
        return ()
    ordered = sorted(values)
    step = len(ordered) / num_shards
    return tuple(ordered[int(i * step)] for i in range(1, num_shards))


def partition_rows(table: "Table", num_shards: int, scheme: str,
                   column: str | None) -> tuple[list[_np.ndarray], tuple]:
    """Assign every stored row to a shard.

    Returns ``(positions_per_shard, bounds)`` where
    ``positions_per_shard[i]`` holds shard *i*'s rows as ascending
    positions in the parent's heap image (so a shard keeps the parent's
    heap order) and ``bounds`` is the range-scheme split keys (empty for
    round-robin).  Pure bookkeeping: no simulated I/O is charged
    (partitioning is offline DDL, like index builds).
    """
    validate_sharding(num_shards, scheme)
    n_rows = table.row_count
    if scheme == "round_robin":
        return [_np.arange(i, n_rows, num_shards)
                for i in range(num_shards)], ()
    if column is None:
        raise StorageError(
            "range partitioning requires a column name"
        )
    keys = table.heap.image().column_values(table.schema.index_of(column))
    bounds = range_split_keys(keys, num_shards)
    shard_of = _np.fromiter((bisect_right(bounds, key) for key in keys),
                            dtype=_np.intp, count=n_rows)
    return [_np.flatnonzero(shard_of == i) for i in range(num_shards)], bounds

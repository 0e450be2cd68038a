"""The logical query description the declarative API hands the planner.

A :class:`QuerySpec` says *what* to compute — base table, filters, joins,
grouping, ordering — and nothing about *how*: no access paths, no join
methods, no operator classes.  :meth:`~repro.optimizer.planner.Planner.
plan_query` lowers a spec into a physical operator tree, which is the
paper's whole point inverted into an API: callers state the query, the
planner decides the paths (and with Smooth Scan enabled it can always
decide safely, §IV-B).

Specs are immutable; the fluent :class:`~repro.api.query.Query` builder
produces a new spec per call, so partially-built queries can be shared
and branched freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import PlanningError
from repro.exec.aggregates import AggSpec
from repro.exec.expressions import Predicate, TruePredicate
from repro.storage.chunk import Chunk, ColumnData
from repro.storage.types import Schema

#: Join semantics the executor supports (HashJoin's ``join_type`` values).
JOIN_KINDS = ("inner", "left", "semi", "anti")


@dataclass(frozen=True)
class JoinSpec:
    """One equi-join against a named table.

    ``left_key`` must be resolvable in the schema accumulated so far (the
    base table or any earlier join); ``right_key`` names a column of
    ``table``.  Non-inner joins are order-sensitive, so the planner only
    reorders joins when every join in the query is ``inner``.
    """

    table: str
    left_key: str
    right_key: str
    how: str = "inner"

    def __post_init__(self) -> None:
        if self.how not in JOIN_KINDS:
            raise PlanningError(
                f"join kind must be one of {JOIN_KINDS}, got {self.how!r}"
            )


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    column: str
    ascending: bool = True


@dataclass(frozen=True)
class MapSpec:
    """A computed projection applied after aggregation (MapProject).

    ``fn`` maps a chunk to its output columns: one ``ColumnData`` per
    column of ``schema``, ``len(chunk)`` values each (see
    :mod:`repro.exec.values`).
    """

    schema: Schema
    fn: Callable[[Chunk], Sequence[ColumnData]]


@dataclass(frozen=True)
class QuerySpec:
    """A complete logical query over one database.

    ``predicate`` is the conjunction of every ``where()`` call; the
    planner splits it into per-table pushdowns and cross-table residuals.
    Aggregation is active when ``group_by`` or ``aggregates`` is
    non-empty (empty ``group_by`` with aggregates is a scalar aggregate).
    """

    table: str
    predicate: Predicate = field(default_factory=TruePredicate)
    joins: tuple[JoinSpec, ...] = ()
    group_by: tuple[str, ...] = ()
    aggregates: tuple[AggSpec, ...] = ()
    select: tuple[str, ...] = ()
    maps: tuple[MapSpec, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None

    @property
    def has_aggregation(self) -> bool:
        """True when the query groups and/or aggregates."""
        return bool(self.group_by or self.aggregates)

    @property
    def table_names(self) -> tuple[str, ...]:
        """All referenced tables, base first, in join order."""
        return (self.table,) + tuple(j.table for j in self.joins)

"""The fluent, immutable query builder.

A :class:`Query` is a thin, chainable wrapper around a
:class:`~repro.optimizer.logical.QuerySpec`; every method returns a *new*
``Query``, so prefixes can be shared and branched::

    base = db.query("micro").where(Between("c2", 0, 20_000))
    asc = base.order_by("c2")
    top = asc.limit(10)

Nothing here touches physical operators: lowering happens in
:meth:`~repro.optimizer.planner.Planner.plan_query` when the query is
planned or executed — which is the point.  The paper's claim is that the
*system* can pick access paths safely (always Smooth Scan if it wants,
§IV-B); this API finally routes users through that decision instead of
making them hand-pick ``SmoothScan(...)`` per table.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import PlanningError
from repro.exec.aggregates import AggSpec
from repro.exec.expressions import Predicate, conjunction
from repro.optimizer.logical import JoinSpec, MapSpec, OrderItem, QuerySpec
from repro.storage.chunk import Chunk, ColumnData
from repro.storage.types import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.result import QueryResult
    from repro.database import Database
    from repro.optimizer.planner import PlannedQuery, PlannerOptions


class Query:
    """An immutable declarative query bound to one database."""

    __slots__ = ("database", "spec", "options")

    def __init__(self, database: "Database", spec: QuerySpec,
                 options: "PlannerOptions | None" = None):
        self.database = database
        self.spec = spec
        self.options = options

    # -- builders ------------------------------------------------------------

    def _with(self, **changes) -> "Query":
        return Query(self.database, replace(self.spec, **changes),
                     self.options)

    def where(self, *predicates: Predicate) -> "Query":
        """AND one or more predicates onto the query's filter."""
        for p in predicates:
            if not isinstance(p, Predicate):
                raise PlanningError(
                    f"where() takes Predicate objects, got {p!r}"
                )
        return self._with(
            predicate=conjunction([self.spec.predicate, *predicates])
        )

    def join(self, table: str, on: str | tuple[str, str],
             how: str = "inner") -> "Query":
        """Equi-join to ``table``.

        ``on`` is ``(left_key, right_key)`` — or a single column name
        when both sides share it, which only semi/anti joins support
        (their output keeps the left schema; inner/left joins would
        duplicate the column).
        """
        if isinstance(on, str):
            if how not in ("semi", "anti"):
                raise PlanningError(
                    f"join(on={on!r}) names one column for both sides, "
                    f"which a {how!r} join cannot output (duplicate "
                    "column); pass on=(left_key, right_key)"
                )
            left = right = on
        else:
            left, right = on
        spec = JoinSpec(table=table, left_key=left, right_key=right, how=how)
        return self._with(joins=self.spec.joins + (spec,))

    def group_by(self, *columns: str) -> "Query":
        """Set the grouping keys (replaces any previous grouping)."""
        return self._with(group_by=tuple(columns))

    def aggregate(self, *aggs: AggSpec | Sequence) -> "Query":
        """Append aggregate outputs.

        Each argument is an :class:`~repro.exec.aggregates.AggSpec` or a
        shorthand tuple ``(func, column)`` / ``(func, column, output)``
        where ``column`` may be ``"*"`` for ``count(*)``.
        """
        normalized = tuple(_as_agg_spec(a) for a in aggs)
        return self._with(aggregates=self.spec.aggregates + normalized)

    def select(self, *columns: str) -> "Query":
        """Project the final output down to ``columns``, in order."""
        return self._with(select=tuple(columns))

    def map(self, schema: Schema,
            fn: Callable[[Chunk], Sequence[ColumnData]]) -> "Query":
        """Append a computed projection (post-aggregation MapProject).

        ``fn`` maps a chunk to one column per field of ``schema``, each
        ``len(chunk)`` values long — an ndarray or a list; build it from
        :mod:`repro.exec.values` (``compute_all`` of column nodes).
        """
        return self._with(maps=self.spec.maps + (MapSpec(schema, fn),))

    def order_by(self, *keys: str | tuple[str, bool]) -> "Query":
        """Set the output order (replaces any previous ordering).

        Keys are column names (ascending) or ``(column, direction)``
        where direction is a bool (``True`` = ascending) or the string
        ``"asc"`` / ``"desc"``.
        """
        return self._with(order_by=tuple(
            OrderItem(k) if isinstance(k, str)
            else OrderItem(k[0], _as_ascending(k[1]))
            for k in keys
        ))

    def limit(self, n: int) -> "Query":
        """Keep at most ``n`` output rows."""
        return self._with(limit=n)

    def using(self, options: "PlannerOptions") -> "Query":
        """Attach planner options (policies, forced paths, smooth mode)."""
        return Query(self.database, self.spec, options)

    # -- lowering and execution ----------------------------------------------

    def plan(self, options: "PlannerOptions | None" = None) -> "PlannedQuery":
        """Lower through the planner without executing."""
        return self.database.plan(self, options=options)

    def explain(self, options: "PlannerOptions | None" = None) -> str:
        """The plan tree (estimates only; run() fills actual rows)."""
        return self.plan(options=options).render()

    def run(self, *, cold: bool = True, keep_rows: bool = True,
            options: "PlannerOptions | None" = None) -> "QueryResult":
        """Plan and execute on the bound database (cold by default)."""
        return self.database.execute(
            self, cold=cold, keep_rows=keep_rows, options=options
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.spec
        parts = [f"Query({s.table!r}"]
        if not _is_true(s.predicate):
            parts.append(f", where={s.predicate!r}")
        for j in s.joins:
            parts.append(
                f", join={j.table}({j.left_key}={j.right_key}, {j.how})"
            )
        if s.group_by:
            parts.append(f", group_by={list(s.group_by)}")
        if s.aggregates:
            parts.append(f", aggs={[a.output for a in s.aggregates]}")
        if s.order_by:
            parts.append(
                ", order_by=" + str([
                    o.column if o.ascending else f"{o.column} DESC"
                    for o in s.order_by
                ])
            )
        if s.limit is not None:
            parts.append(f", limit={s.limit}")
        return "".join(parts) + ")"


def _is_true(predicate: Predicate) -> bool:
    from repro.exec.expressions import TruePredicate
    return isinstance(predicate, TruePredicate)


def _as_ascending(direction: object) -> bool:
    """Normalize an order direction; rejects anything ambiguous."""
    if isinstance(direction, bool):
        return direction
    if direction == "asc":
        return True
    if direction == "desc":
        return False
    raise PlanningError(
        "order direction must be a bool or 'asc'/'desc', "
        f"got {direction!r}"
    )


def _as_agg_spec(agg: AggSpec | Sequence) -> AggSpec:
    """Normalize ``(func, column[, output])`` shorthands into AggSpec."""
    if isinstance(agg, AggSpec):
        return agg
    if isinstance(agg, (tuple, list)) and len(agg) in (2, 3):
        func, column = agg[0], agg[1]
        output = agg[2] if len(agg) == 3 else (
            func if column in ("*", None) else f"{func}_{column}"
        )
        if column in ("*", None):
            return AggSpec(func, output)
        return AggSpec(func, output, column=column)
    raise PlanningError(
        f"aggregate() takes AggSpec or (func, column[, output]), got {agg!r}"
    )

"""Small plumbing operators: Filter, Project, MapProject, Rename, Limit.

Each consumes child chunks whole — filters narrow by selection vector,
projections share column payloads, and maps compute whole columns.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.context import ExecutionContext
from repro.errors import ExecutionError, PlanningError
from repro.exec.expressions import Predicate, require_columns
from repro.exec.iterator import Chunk, Operator
from repro.storage.chunk import ColumnData
from repro.storage.types import Column, Schema


class Filter(Operator):
    """Drop child rows that fail a predicate."""

    def __init__(self, child: Operator, predicate: Predicate):
        self.child = child
        self.predicate = predicate
        require_columns(child.schema, predicate)
        self.schema = child.schema

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def name(self) -> str:
        return f"Filter({self.predicate!r})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        filter_chunk = self.predicate.bind_chunk(self.schema)
        for batch in self.child.batches(ctx):
            ctx.charge_inspect(len(batch))
            kept = filter_chunk(batch)
            if kept is not None:
                yield kept


class Project(Operator):
    """Keep a subset of columns, in the given order."""

    def __init__(self, child: Operator, columns: Sequence[str]):
        if not columns:
            raise PlanningError("Project needs at least one column")
        self.child = child
        self.columns = list(columns)
        positions = [child.schema.index_of(c) for c in self.columns]
        self._positions = positions
        self.schema = Schema([child.schema.columns[p] for p in positions])

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def name(self) -> str:
        return f"Project({', '.join(self.columns)})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        positions = self._positions
        names = self.schema.column_names
        for batch in self.child.batches(ctx):
            yield batch.project(positions, names)


class MapProject(Operator):
    """Compute derived columns with a chunk function.

    ``fn`` maps each child chunk to one column payload per output column
    (``ColumnData``, ``len(chunk)`` values each); the values of
    :mod:`repro.exec.values` are such functions, and
    :func:`~repro.exec.values.compute_all` turns several into one.  The
    caller supplies the output schema explicitly — the executor cannot
    infer types from a Python callable.
    """

    def __init__(self, child: Operator, out_schema: Schema,
                 fn: Callable[[Chunk], Sequence[ColumnData]]):
        self.child = child
        self.schema = out_schema
        self.fn = fn

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        fn = self.fn
        names = self.schema.column_names
        for batch in self.child.batches(ctx):
            columns = list(fn(batch))
            n = len(batch)
            if len(columns) != len(names) \
                    or any(len(c) != n for c in columns):
                raise ExecutionError(
                    f"map gave {len(columns)} columns of lengths "
                    f"{[len(c) for c in columns]} for a {n}-row batch; "
                    f"its schema has {len(names)} columns"
                )
            yield Chunk.from_columns(names, columns)


class Rename(Operator):
    """Rename columns (aliasing for self-joins); values pass through."""

    def __init__(self, child: Operator, mapping: dict[str, str]):
        self.child = child
        self.mapping = dict(mapping)
        columns = []
        for col in child.schema.columns:
            new_name = self.mapping.get(col.name, col.name)
            columns.append(Column(new_name, col.ctype, col.length))
        self.schema = Schema(columns)

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def name(self) -> str:
        return f"Rename({self.mapping})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        return self.child.batches(ctx)


class Limit(Operator):
    """Stop after ``n`` rows (early pipeline termination)."""

    def __init__(self, child: Operator, n: int):
        if n < 0:
            raise PlanningError("Limit must be non-negative")
        self.child = child
        self.n = n
        self.schema = child.schema

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def name(self) -> str:
        return f"Limit({self.n})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        remaining = self.n
        if remaining == 0:
            return
        for batch in self.child.batches(ctx):
            if len(batch) >= remaining:
                yield batch[:remaining]
                return
            remaining -= len(batch)
            yield batch


class RowCounter(Operator):
    """A transparent pass-through that records its output cardinality.

    The planner wraps every plan-tree node with one so ``explain()`` can
    report actual alongside estimated rows.  It charges nothing and never
    re-chunks, so a counted plan produces byte-identical rows and
    identical simulated costs to the bare tree.  It also hides itself
    from plan rendering: ``name()`` and ``children()`` delegate to the
    wrapped operator, so :func:`~repro.exec.iterator.explain` output is
    unchanged.
    """

    def __init__(self, child: Operator):
        self.child = child
        self.schema = child.schema
        #: Rows produced by the most recent execution; None before any.
        self.rows_seen: int | None = None

    def children(self) -> tuple[Operator, ...]:
        return self.child.children()

    def name(self) -> str:
        return self.child.name()

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        self.rows_seen = 0
        for batch in self.child.batches(ctx):
            self.rows_seen += len(batch)
            yield batch

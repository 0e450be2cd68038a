"""Join operators: hash and index nested-loop.

Both emit *position pairs*: a probe collects, per output row, the
position of its left (outer) row in the probe batch and of its right
(inner) row — in the build chunk, or the inner heap's columnar image —
and the output chunk is the two sides' ``take`` of those positions, side
by side.  No joined row is built before a consumer reads one.

The index nested-loop join supports two inner access modes: ``classic``
(one random heap fetch per matching TID — PostgreSQL's parameterized index
path) and ``smooth`` (Section IV-B: morphing per join key — deduplicate
heap pages per key, fetch each page once, probe it entirely, and batch
adjacent pages into runs).  With single-match keys the two coincide, which
is exactly what the paper observes for the PK look-ups of Q4/Q14.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as _np

from repro.context import ExecutionContext
from repro.errors import PlanningError
from repro.exec.expressions import Predicate, TruePredicate
from repro.exec.iterator import Chunk, Operator
from repro.exec.scans import _contiguous_runs
from repro.storage.table import Table
from repro.storage.types import Schema


def _joined_schema(left: Schema, right: Schema) -> Schema:
    """Concatenate schemas; column names must stay unique."""
    columns = list(left.columns) + list(right.columns)
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        raise PlanningError(
            f"joined schema would duplicate column names: {names}"
        )
    return Schema(columns)


def joined_chunk(names: Sequence[str], left: Chunk, left_at: list[int],
                 right: Chunk, right_at: list[int]) -> Chunk:
    """Row ``k`` is ``left[left_at[k]] + right[right_at[k]]``: two takes."""
    parts = (left.take(_np.asarray(left_at, dtype=_np.intp)),
             right.take(_np.asarray(right_at, dtype=_np.intp)))
    return Chunk(names, [part.data_column(i) for part in parts
                         for i in range(len(part.columns))])


def _keys(chunk: Chunk, positions: Sequence[int]) -> list:
    """The join key of each row: the value, or a tuple of several."""
    if len(positions) == 1:
        return chunk.column_values(positions[0])
    return list(zip(*(chunk.column_values(p) for p in positions),
                    strict=True))


class HashJoin(Operator):
    """Equi-join; builds a hash table on the right child, streams the left.

    ``join_type`` selects the SQL semantics:

    * ``"inner"`` — emit ``left + right`` per match (the default);
    * ``"left"`` — unmatched left rows are emitted padded with ``None``;
    * ``"semi"`` — emit each left row at most once if any match exists;
    * ``"anti"`` — emit each left row only if *no* match exists.

    A key containing NULL matches nothing, as in SQL: inner and semi
    joins drop the row, a left join pads it, an anti join keeps it.
    Semi/anti joins output the left schema only (they implement EXISTS /
    NOT EXISTS subqueries, e.g. TPC-H Q4 and Q22).  Output is in left
    order, and a left row's matches in the right child's order.
    """

    def __init__(self, left: Operator, right: Operator,
                 left_keys: Sequence[str], right_keys: Sequence[str],
                 join_type: str = "inner"):
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanningError("HashJoin needs matching non-empty key lists")
        if join_type not in ("inner", "left", "semi", "anti"):
            raise PlanningError(f"unknown join_type {join_type!r}")
        self.left = left
        self.right = right
        self.join_type = join_type
        self.left_positions = [left.schema.index_of(k) for k in left_keys]
        self.right_positions = [right.schema.index_of(k) for k in right_keys]
        if join_type in ("semi", "anti"):
            self.schema = left.schema
        else:
            self.schema = _joined_schema(left.schema, right.schema)

    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    def name(self) -> str:
        return f"HashJoin({self.join_type})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Probe the hash table one left batch at a time.

        Semi/anti joins narrow the batch by selection vector; inner and
        left joins collect (left, right) position pairs and emit their
        :func:`joined_chunk`.  A left join's miss pairs with the padding
        row appended to the build side.
        """
        right, table = self._build(ctx)
        join_type = self.join_type
        names = self.schema.column_names
        get = table.get
        pad = len(right) - 1 if join_type == "left" else None
        for batch in self.left.batches(ctx):
            ctx.charge_hash(len(batch))
            keys = _keys(batch, self.left_positions)
            if join_type in ("semi", "anti"):
                want = join_type == "semi"
                sel = [i for i, k in enumerate(keys) if (k in table) is want]
                if sel:
                    kept = batch if len(sel) == len(batch) \
                        else batch.take(sel)
                    ctx.charge_emit(len(kept))
                    yield kept
                continue
            left_at: list[int] = []
            right_at: list[int] = []
            for i, k in enumerate(keys):
                found = get(k)
                if found:
                    left_at += [i] * len(found)
                    right_at += found
                elif pad is not None:
                    left_at.append(i)
                    right_at.append(pad)
            if left_at:
                ctx.charge_emit(len(left_at))
                yield joined_chunk(names, batch, left_at, right, right_at)

    def _build(self, ctx: ExecutionContext) -> tuple[Chunk, dict]:
        """The right child as one chunk, and each key's positions in it.

        Keys containing NULL are left out of the table, so nothing finds
        them; a left join's build chunk ends in one all-NULL padding row.
        """
        names = self.right.schema.column_names
        parts = list(self.right.batches(ctx))
        right = Chunk.concat(parts) if parts \
            else Chunk(names, [[] for _ in names])
        ctx.charge_hash(len(right))
        table: dict[object, list[int]] = {}
        setdefault = table.setdefault
        single = len(self.right_positions) == 1
        for pos, k in enumerate(_keys(right, self.right_positions)):
            if (k is None) if single else (None in k):
                continue
            setdefault(k, []).append(pos)
        if self.join_type == "left":
            right = Chunk.concat(
                [right, Chunk.from_rows(names, [(None,) * len(names)])])
        return right, table


class IndexNestedLoopJoin(Operator):
    """INLJ: probe an index on the inner table for each outer row.

    ``inner_access='classic'`` fetches one heap page per matching TID —
    random I/O, repeated pages re-fetched.  ``inner_access='smooth'``
    applies Smooth Scan's per-key morphing (Section IV-B): TIDs of one key
    are grouped by page, each page is fetched once and probed entirely,
    and adjacent pages are batched into sequential runs.
    """

    def __init__(self, outer: Operator, inner_table: Table,
                 inner_column: str, outer_key: str,
                 residual: Predicate | None = None,
                 inner_access: str = "classic"):
        if inner_access not in ("classic", "smooth"):
            raise PlanningError(
                f"unknown inner_access {inner_access!r}; "
                "use 'classic' or 'smooth'"
            )
        self.outer = outer
        self.inner_table = inner_table
        self.inner_column = inner_column
        self.index = inner_table.index_on(inner_column)
        self.outer_pos = outer.schema.index_of(outer_key)
        self.inner_access = inner_access
        self.schema = _joined_schema(outer.schema, inner_table.schema)
        self.residual = residual or TruePredicate()

    def children(self) -> tuple[Operator, ...]:
        return (self.outer,)

    def name(self) -> str:
        return f"IndexNestedLoopJoin({self.inner_table.name}, {self.inner_access})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Probe the inner index one outer batch at a time.

        The probe loop runs key by key — each key's index leaf reads, then
        its heap page requests — and collects (outer position, inner TID)
        pairs; a TID is the inner row's position in the heap image, so
        the batch's output is their :func:`joined_chunk`, and the
        residual one mask over it.  A NULL key probes nothing.
        """
        heap = self.inner_table.heap
        per_page = heap.tuples_per_page
        residual = self.residual.bind_chunk(self.schema)
        names = self.schema.column_names
        smooth = self.inner_access == "smooth"
        lookup = self.index.lookup
        for batch in self.outer.batches(ctx):
            outer_at: list[int] = []
            inner_at: list[int] = []
            inspected = 0
            for i, key in enumerate(batch.column_values(self.outer_pos)):
                tids = list(lookup(ctx, key))
                if not tids:
                    continue
                if smooth and len(tids) > 1:
                    inspected += self._probe_smooth(ctx, heap, tids)
                else:
                    for tid in tids:
                        ctx.get_page(heap, tid // per_page)
                    inspected += len(tids)
                outer_at += [i] * len(tids)
                inner_at += tids
            ctx.charge_inspect(inspected)
            if not inner_at:
                continue
            kept = residual(joined_chunk(names, batch, outer_at,
                                         heap.image(), inner_at))
            if kept is not None:
                ctx.charge_emit(len(kept))
                yield kept

    @staticmethod
    def _probe_smooth(ctx: ExecutionContext, heap, tids: list[int]) -> int:
        """Per-key morphing: fetch each page once, probe it entirely.

        Returns the rows the page probes inspected.  Probing a page
        entirely finds the key's rows on it, which are its TIDs — in page
        order already, as one key's TIDs ascend in the index.
        """
        per_page = heap.tuples_per_page
        row_count = heap.row_count
        inspected = 0
        pages = sorted({tid // per_page for tid in tids})
        for run_start, run_len in _contiguous_runs(pages):
            for page_id in ctx.get_run(heap, run_start, run_len):
                # Full, unless it is the heap's short last page.
                inspected += min(per_page, row_count - page_id * per_page)
        return inspected

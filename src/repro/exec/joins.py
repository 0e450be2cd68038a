"""Join operators: hash, merge, (block) nested-loop, and index nested-loop.

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
from repro.exec.iterator import Batch, Chunk, Operator, chunked
from repro.storage.table import Table
from repro.storage.types import Row, Schema


def _joined_schema(left: Schema, right: Schema) -> Schema:
    """Concatenate schemas; column names must stay unique."""
    columns = list(left.columns) + list(right.columns)
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        raise PlanningError(
            f"joined schema would duplicate column names: {names}"
        )
    return Schema(columns)


class HashJoin(Operator):
    """Equi-join; builds a hash table on the right child, streams the left.

    ``join_type`` selects the SQL semantics:

    * ``"inner"`` — emit ``left + right`` per match (the default);
    * ``"left"`` — unmatched left rows are emitted padded with ``None``;
    * ``"semi"`` — emit each left row at most once if any match exists;
    * ``"anti"`` — emit each left row only if *no* match exists.

    Semi/anti joins output the left schema only (they implement EXISTS /
    NOT EXISTS subqueries, e.g. TPC-H Q4 and Q22).
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

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Probe the hash table one left batch at a time.

        Single-key probes against a chunk read the key column once
        (``column_values``) instead of building a key tuple per row, and
        semi/anti joins narrow the chunk by selection vector — their
        output stays columnar with zero row materialization.
        """
        table = self._build(ctx)
        lpos = self.left_positions
        pad = (None,) * len(self.right.schema)
        join_type = self.join_type
        get = table.get
        single = len(lpos) == 1
        lp0 = lpos[0]
        for batch in self.left.batches(ctx):
            ctx.charge_hash(len(batch))
            is_chunk = isinstance(batch, Chunk)
            keys = batch.column_values(lp0) if single and is_chunk else None
            if join_type in ("semi", "anti"):
                if keys is not None:
                    if join_type == "semi":
                        sel = [i for i, k in enumerate(keys) if get((k,))]
                    else:
                        sel = [i for i, k in enumerate(keys) if not get((k,))]
                    if sel:
                        kept = batch if len(sel) == len(batch) \
                            else batch.take(sel)
                        ctx.charge_emit(len(kept))
                        yield kept
                    continue
                if join_type == "semi":
                    out = [row for row in batch
                           if get(tuple(row[p] for p in lpos))]
                else:
                    out = [row for row in batch
                           if not get(tuple(row[p] for p in lpos))]
                if out:
                    ctx.charge_emit(len(out))
                    yield out
                continue
            out = []
            if keys is not None:
                pairs = zip(batch.to_rows(), keys, strict=False)
                lookups = ((row, get((k,))) for row, k in pairs)
            else:
                lookups = ((row, get(tuple(row[p] for p in lpos)))
                           for row in batch)
            if join_type == "inner":
                for row, matches in lookups:
                    if matches:
                        out += [row + match for match in matches]
            else:  # left
                for row, matches in lookups:
                    if matches:
                        out += [row + match for match in matches]
                    else:
                        out.append(row + pad)
            if out:
                ctx.charge_emit(len(out))
                yield Chunk.from_rows(self.schema.column_names, out)

    def _build(self, ctx: ExecutionContext) -> dict[tuple, list[Row]]:
        """Materialize the right child into the join hash table."""
        table: dict[tuple, list[Row]] = {}
        rpos = self.right_positions
        single = len(rpos) == 1
        rp0 = rpos[0]
        for batch in self.right.batches(ctx):
            ctx.charge_hash(len(batch))
            if single and isinstance(batch, Chunk):
                for k, row in zip(batch.column_values(rp0),
                                  batch.to_rows(), strict=False):
                    table.setdefault((k,), []).append(row)
            else:
                for row in batch:
                    table.setdefault(
                        tuple(row[p] for p in rpos), []
                    ).append(row)
        return table


class MergeJoin(Operator):
    """Equi-join of two inputs already sorted on their join keys.

    The operator trusts its inputs' ordering — the planner is responsible
    for placing sorts (or key-ordered access paths such as an index scan
    or an ordered Smooth Scan) underneath.
    """

    def __init__(self, left: Operator, right: Operator,
                 left_key: str, right_key: str):
        self.left = left
        self.right = right
        self.left_pos = left.schema.index_of(left_key)
        self.right_pos = right.schema.index_of(right_key)
        self.schema = _joined_schema(left.schema, right.schema)

    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    def name(self) -> str:
        return "MergeJoin"

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Merge the children's row views, cut into chunks."""
        return chunked(self.schema.column_names, self._merge(ctx))

    def _merge(self, ctx: ExecutionContext) -> Iterator[Row]:
        lpos, rpos = self.left_pos, self.right_pos
        left_iter = self.left.rows(ctx)
        right_iter = self.right.rows(ctx)
        lrow = next(left_iter, None)
        rrow = next(right_iter, None)
        while lrow is not None and rrow is not None:
            ctx.charge_compare()
            lkey, rkey = lrow[lpos], rrow[rpos]
            if lkey < rkey:
                lrow = next(left_iter, None)
            elif lkey > rkey:
                rrow = next(right_iter, None)
            else:
                # Gather the full duplicate group on the right.
                group = [rrow]
                rrow = next(right_iter, None)
                while rrow is not None and rrow[rpos] == lkey:
                    group.append(rrow)
                    rrow = next(right_iter, None)
                while lrow is not None and lrow[lpos] == lkey:
                    for match in group:
                        ctx.charge_emit()
                        yield lrow + match
                    lrow = next(left_iter, None)


class NestedLoopJoin(Operator):
    """Block nested-loop join with an arbitrary predicate (small inputs)."""

    def __init__(self, left: Operator, right: Operator,
                 predicate: Predicate | None = None):
        self.left = left
        self.right = right
        self.schema = _joined_schema(left.schema, right.schema)
        self.predicate = predicate or TruePredicate()

    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    def name(self) -> str:
        return "NestedLoopJoin"

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Join one left batch against the materialized inner per step.

        Pairs are tested left-row-at-a-time so memory stays proportional
        to the *matching* output, never the raw cross product.
        """
        inner = [row for batch in self.right.batches(ctx) for row in batch]
        matches = self.predicate.bind(self.schema)
        for batch in self.left.batches(ctx):
            ctx.charge_inspect(len(batch) * len(inner))
            out = [
                joined
                for lrow in batch
                for rrow in inner
                if matches(joined := lrow + rrow)
            ]
            if out:
                ctx.charge_emit(len(out))
                yield out


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

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Probe the inner index one outer batch at a time.

        The inner rows a batch will fetch are read first, in one gather
        out of the heap image at the positions the index holds for the
        batch's keys (uncharged, as every payload read is); the probe
        loop then charges lookup by lookup and fetch by fetch.
        """
        matches = self.residual.bind(self.schema)
        heap = self.inner_table.heap
        per_page = heap.tuples_per_page
        opos = self.outer_pos
        inner_key_pos = self.inner_table.schema.index_of(self.inner_column)
        smooth = self.inner_access == "smooth"
        peek_tids = self.index.peek_tids
        for batch in self.outer.batches(ctx):
            if not len(batch):
                continue
            inner_rows = heap.image().take(_np.concatenate(
                [peek_tids(orow[opos]) for orow in batch])).to_rows()
            taken = 0
            out: list[Row] = []
            for orow in batch:
                key = orow[opos]
                tids = list(self.index.lookup(ctx, key))
                if not tids:
                    continue
                irows = inner_rows[taken:taken + len(tids)]
                taken += len(tids)
                if smooth and len(tids) > 1:
                    out.extend(self._probe_smooth(
                        ctx, heap, orow, key, tids, irows, inner_key_pos,
                        matches
                    ))
                else:
                    for tid, irow in zip(tids, irows, strict=True):
                        ctx.get_page(heap, tid // per_page)
                        ctx.charge_inspect()
                        joined = orow + irow
                        if matches(joined):
                            ctx.charge_emit()
                            out.append(joined)
            if out:
                yield out

    def _probe_smooth(self, ctx: ExecutionContext, heap, orow: Row,
                      key: object, tids, irows: list[Row],
                      inner_key_pos: int, matches) -> Iterator[Row]:
        """Per-key morphing: fetch each page once, probe it entirely.

        Probing a page entirely finds the key's rows on it, which are
        ``irows`` (one per TID, and one key's TIDs are in slot order).
        """
        per_page = heap.tuples_per_page
        row_count = heap.row_count
        on_page: dict[int, list[Row]] = {}
        for tid, irow in zip(tids, irows, strict=True):
            found = on_page.setdefault(tid // per_page, [])
            # A NULL outer key probes every entry and equals no row.
            if irow[inner_key_pos] == key:
                found.append(irow)
        from repro.exec.scans import _contiguous_runs  # shared helper
        for run_start, run_len in _contiguous_runs(sorted(on_page)):
            for page_id in ctx.get_run(heap, run_start, run_len):
                # Full, unless it is the heap's short last page.
                ctx.charge_inspect(min(per_page, row_count - page_id * per_page))
                for irow in on_page[page_id]:
                    joined = orow + irow
                    if matches(joined):
                        ctx.charge_emit()
                        yield joined

"""The three traditional access paths of Section II.

* :class:`FullTableScan` — stream every heap page sequentially in extents.
* :class:`IndexScan` — classical non-clustered index scan: one random heap
  page fetch per qualifying TID, repeated pages re-fetched; emits in key
  order (the path that collapses when selectivity is underestimated).
* :class:`SortScan` — PostgreSQL's bitmap heap scan: collect qualifying
  TIDs from the index, sort by page, then fetch pages in near-sequential
  order; blocking, emits in physical order.

Smooth Scan and Switch Scan live in :mod:`repro.core` — they are the
paper's contribution, these are its baselines.
"""

from __future__ import annotations

from typing import Iterator

import numpy as _np

from repro.context import ExecutionContext
from repro.exec.expressions import (
    KeyRange,
    Predicate,
    TruePredicate,
    require_columns,
)
from repro.exec.iterator import Batch, DEFAULT_BATCH_SIZE, Operator
from repro.storage.table import Table
from repro.storage.types import Row

#: Below this many candidate slots per page (on average, per run), the
#: bitmap heap scan gathers rows directly instead of slicing columns.
_SPARSE_SLOTS_PER_PAGE = 16


class FullTableScan(Operator):
    """Sequential scan of every heap page, extent by extent (Eq. (10))."""

    def __init__(self, table: Table, predicate: Predicate | None = None):
        self.table = table
        self.predicate = predicate or TruePredicate()
        require_columns(table.schema, self.predicate)
        self.schema = table.schema

    def name(self) -> str:
        return f"FullTableScan({self.table.name})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Columnar scan: one chunk per extent run of heap pages.

        The extent is one slice of the heap image, filtered with one mask
        evaluation, so predicate work runs on extent-sized arrays instead
        of page-sized ones.  Charges: inspect per page, emit per
        qualifying batch.
        """
        heap = self.table.heap
        filter_chunk = self.predicate.bind_chunk(self.schema)
        extent = ctx.config.extent_pages
        per_page = heap.tuples_per_page
        for start in range(0, heap.num_pages, extent):
            n = len(ctx.get_run(heap, start, extent))
            chunk = heap.run_chunk(start, n)
            # Every page is full but the heap's last, which ends its run.
            for _ in range(n - 1):
                ctx.charge_inspect(per_page)
            ctx.charge_inspect(len(chunk) - (n - 1) * per_page)
            kept = filter_chunk(chunk)
            if kept is not None:
                ctx.charge_emit(len(kept))
                yield kept


class IndexScan(Operator):
    """Classical non-clustered index scan (Eq. (11)).

    Traverses the B+-tree once to the first qualifying entry, then follows
    the leaf chain; each TID triggers a heap page fetch — random, and
    possibly repeated, which is precisely the behaviour Smooth Scan's Page
    ID Cache eliminates.  Output is in index-key order.
    """

    def __init__(self, table: Table, column: str,
                 key_range: KeyRange | None = None,
                 residual: Predicate | None = None):
        self.table = table
        self.column = column
        self.index = table.index_on(column)
        self.key_range = key_range or KeyRange.all()
        self.residual = residual or TruePredicate()
        require_columns(table.schema, self.residual)
        self.schema = table.schema

    def name(self) -> str:
        return f"IndexScan({self.table.name}.{self.column})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """One random heap page request per index entry, in key order.

        Charged tuple at a time — per entry ``index_entry``, the page
        request (a buffer-hit charge, or the disk's read), ``inspect``,
        and ``emit`` per survivor; a bulk ``charge_*(n)`` would be a
        different float sum — but computed a block of TIDs at a time:
        the pool sees the block's page ids in order
        (:meth:`~repro.storage.buffer.BufferPool.touch_pages`), the
        residual is one mask over the block's rows of the heap image,
        and the CPU charges go to the clock as one sequence.  A
        block ends at its leaf's end or where a full batch would, so
        nothing is read or charged past the entry that fills a batch.
        """
        heap = self.table.heap
        image = heap.image()
        per_page = heap.tuples_per_page
        residual = (None if isinstance(self.residual, TruePredicate)
                    else self.residual.bind_mask(self.schema))
        cpu = ctx.config.cpu
        # One row per entry, in charge order; hit and emit are conditional.
        costs = _np.array([cpu.index_entry, ctx.buffer.hit_cpu_ms,
                           cpu.tuple_inspect, cpu.tuple_emit])
        rng = self.key_range
        pending: list = []
        room = DEFAULT_BATCH_SIZE
        for tids in self.index.scan_leaf_tids(
            ctx, lo=rng.lo, hi=rng.hi,
            lo_inclusive=rng.lo_inclusive, hi_inclusive=rng.hi_inclusive,
        ):
            while len(tids):
                block, tids = tids[:room], tids[room:]
                found = image.take(block)
                charged = _np.ones((len(block), 4), dtype=bool)
                charged[:, 1] = ctx.buffer.touch_pages(
                    heap, (block // per_page).tolist())
                mask = None if residual is None else residual(found)
                if mask is not None:
                    charged[:, 3] = mask
                    found = found.filter(mask)
                ctx.clock.charge_cpu_seq(
                    _np.broadcast_to(costs, charged.shape)[charged])
                if found is None:
                    continue
                pending.append(found.sel)
                room -= len(found)
                if not room:
                    yield image.take(_np.concatenate(pending))
                    pending = []
                    room = DEFAULT_BATCH_SIZE
        if pending:
            yield image.take(_np.concatenate(pending))


class SortScan(Operator):
    """Bitmap heap scan: sort qualifying TIDs by page, then fetch (§II).

    Phase 1 (blocking): drain the index range, collecting TIDs, and sort
    them in heap-page order.  Phase 2: fetch each page containing results
    at most once, in ascending page order — a pattern disk prefetchers
    serve nearly sequentially.  Emits in physical (TID) order, so an
    ``ORDER BY`` on the key needs an explicit sort on top.
    """

    def __init__(self, table: Table, column: str,
                 key_range: KeyRange | None = None,
                 residual: Predicate | None = None):
        self.table = table
        self.column = column
        self.index = table.index_on(column)
        self.key_range = key_range or KeyRange.all()
        self.residual = residual or TruePredicate()
        require_columns(table.schema, self.residual)
        self.schema = table.schema

    def name(self) -> str:
        return f"SortScan({self.table.name}.{self.column})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Columnar bitmap heap scan: one chunk per near-sequential run.

        Phase 1 pulls the range as one array of TIDs, so collecting,
        sorting and page-grouping the bitmap are all array operations; a
        TID is a row's position in the heap image, so the sorted TIDs
        emit in physical (page, slot) order.  Phase 2 fetches and charges
        page by page but emits a dense run as one selection vector over
        the heap image.
        """
        tids = self.index.scan_tids(
            ctx, lo=self.key_range.lo, hi=self.key_range.hi,
            lo_inclusive=self.key_range.lo_inclusive,
            hi_inclusive=self.key_range.hi_inclusive,
        )
        if not len(tids):
            return
        heap = self.table.heap
        filter_chunk = self.residual.bind_chunk(self.schema)
        positions = _np.sort(tids)
        ctx.charge_compare(_nlogn(len(positions)))

        # Phase 2: group the sorted TIDs by page with one diff pass.
        pages_arr = positions // heap.tuples_per_page
        bounds = _np.flatnonzero(pages_arr[1:] != pages_arr[:-1]) + 1
        starts = _np.concatenate(([0], bounds))
        ends = _np.concatenate((bounds, [len(positions)]))
        page_ids = pages_arr[starts].tolist()
        spans = dict(zip(page_ids,
                         zip(starts.tolist(), ends.tolist(), strict=False),
                         strict=False))
        matches = (None if isinstance(self.residual, TruePredicate)
                   else self.residual.bind(self.schema))
        image = heap.image()
        # Candidates per run: spans are contiguous in TID order.
        runs = [(start, length, spans[start][0], spans[start + length - 1][1])
                for start, length in _contiguous_runs(page_ids)]
        # Sparse runs (few slots per page): gathering whole-page columns
        # to select a handful of rows costs more than fetching the rows
        # directly — every sparse run's rows in one gather, handed out
        # run by run below.  Same charges, row batches.
        sparse = [positions[first:end] for _, length, first, end in runs
                  if end - first < length * _SPARSE_SLOTS_PER_PAGE]
        sparse_rows: list[Row] = image.take(
            _np.concatenate(sparse)).to_rows() if sparse else []
        taken = 0
        for run_start, run_len, first, end in runs:
            for page_id in ctx.get_run(heap, run_start, run_len):
                lo, hi = spans[page_id]
                ctx.charge_inspect(hi - lo)
            if end - first < run_len * _SPARSE_SLOTS_PER_PAGE:
                out = sparse_rows[taken:taken + end - first]
                taken += end - first
                if matches is not None:
                    out = [row for row in out if matches(row)]
                if out:
                    ctx.charge_emit(len(out))
                    yield out
                continue
            # One batch per run (batch boundaries are simulated-clock
            # state: Exchange interleaves on them): the run's candidates
            # as positions in the heap image — a plain slice when every
            # row of the run is one, as TIDs are distinct and sorted.
            start, stop = int(positions[first]), int(positions[end - 1]) + 1
            kept = filter_chunk(
                image[start:stop] if stop - start == end - first
                else image.take(positions[first:end]))
            if kept is not None:
                ctx.charge_emit(len(kept))
                yield kept


def _contiguous_runs(page_ids: list[int]) -> Iterator[tuple[int, int]]:
    """Group a sorted page-id list into maximal (start, length) runs."""
    if not page_ids:
        return
    start = prev = page_ids[0]
    for pid in page_ids[1:]:
        if pid == prev + 1:
            prev = pid
            continue
        yield start, prev - start + 1
        start = prev = pid
    yield start, prev - start + 1


def _nlogn(n: int) -> int:
    """Comparison count estimate for sorting ``n`` items."""
    if n < 2:
        return n
    return n * max(1, (n - 1).bit_length())

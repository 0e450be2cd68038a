"""Switch Scan — the straw-man binary adaptation (Sections III and VI-F).

Runs a classical index scan while counting produced tuples; the moment the
count exceeds the optimizer's cardinality estimate, it abandons the index
strategy and restarts as a full table scan.  Tuples already produced are
remembered in a Tuple ID cache so the full-scan phase does not duplicate
them.  The execution time around the threshold therefore jumps by a full
scan's worth — the *performance cliff* of Figure 11 — while the worst case
stays bounded (index cost at the threshold + one full scan).
"""

from __future__ import annotations

from typing import Iterator

import numpy as _np

from repro.context import ExecutionContext
from repro.core.caches import TupleIdCache
from repro.exec.expressions import (
    KeyRange,
    Predicate,
    TruePredicate,
    require_columns,
)
from repro.exec.iterator import DEFAULT_BATCH_SIZE, Chunk, Operator
from repro.storage.chunk import mask_and, mask_nonzero
from repro.storage.table import Table


class SwitchScan(Operator):
    """Index scan that switches (once, irrevocably) to a full scan.

    Args:
        table: the table to scan.
        column: indexed column.
        key_range: key interval to scan.
        residual: extra predicate applied to every candidate tuple.
        threshold: result-cardinality threshold (usually the optimizer's
            estimate); exceeded ⇒ restart as a full scan.
    """

    def __init__(self, table: Table, column: str,
                 key_range: KeyRange | None = None,
                 residual: Predicate | None = None,
                 threshold: int = 0):
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.table = table
        self.column = column
        self.index = table.index_on(column)
        self.key_range = key_range or KeyRange.all()
        self.residual = residual or TruePredicate()
        require_columns(table.schema, self.residual)
        self.threshold = threshold
        self.schema = table.schema
        #: True when the last execution actually switched strategies.
        self.switched: bool = False

    def name(self) -> str:
        return (
            f"SwitchScan({self.table.name}.{self.column}, "
            f"threshold={self.threshold})"
        )

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Per-probe phase 1, vectorized full-scan phase 2."""
        heap = self.table.heap
        image = heap.image()
        self.switched = False
        qualify_mask = self.key_range.predicate(self.column).bind_mask(
            self.schema)
        residual_mask = (
            None if isinstance(self.residual, TruePredicate)
            else self.residual.bind_mask(self.schema)
        )
        produced_tids = TupleIdCache(heap.num_pages, heap.tuples_per_page)
        produced = 0

        # Phase 1: classical index scan, monitoring actual cardinality.
        # Random per-TID heap fetches dominate here, so the scan stays
        # per entry — which also stops charging at the exact entry where
        # the switch fires, mid-leaf.  Only the payload moves a leaf at a
        # time: the residual is one mask over the leaf's rows of the
        # heap image, and the batch collects TIDs.
        pending: list[int] = []
        rng = self.key_range
        per_page = heap.tuples_per_page
        for tids in self.index.scan_leaf_tids(
            ctx, lo=rng.lo, hi=rng.hi,
            lo_inclusive=rng.lo_inclusive, hi_inclusive=rng.hi_inclusive,
        ):
            mask = None if residual_mask is None \
                else residual_mask(image.take(tids))
            passes = [True] * len(tids) if mask is None else list(mask)
            for tid, page_id, ok in zip(tids.tolist(),
                                        (tids // per_page).tolist(),
                                        passes, strict=True):
                ctx.charge_index_entry()
                ctx.get_page(heap, page_id)
                ctx.charge_inspect()
                if ok:
                    produced += 1
                    produced_tids.add(tid)
                    ctx.charge_cache_insert()
                    ctx.charge_emit()
                    pending.append(tid)
                    if len(pending) >= DEFAULT_BATCH_SIZE:
                        yield image.take(_np.array(pending, dtype=_np.intp))
                        pending = []
                if produced > self.threshold:
                    self.switched = True
                    break
            if self.switched:
                break
        if pending:
            yield image.take(_np.array(pending, dtype=_np.intp))
        if not self.switched:
            return

        # Phase 2: restart as a full scan, skipping already-produced TIDs.
        # Columnar: one key-range/residual mask per page chunk; only the
        # produced-TID dedup inspects positions (a row's TID is its page's
        # first plus its position in the whole-page chunk).
        contains = produced_tids.contains
        extent = ctx.config.extent_pages
        for start in range(0, heap.num_pages, extent):
            parts: list[Chunk] = []
            for pid in ctx.get_run(heap, start, extent):
                chunk = heap.run_chunk(pid, 1)
                ctx.charge_inspect(len(chunk))
                mask = qualify_mask(chunk)
                if residual_mask is not None:
                    mask = mask_and(mask, residual_mask(chunk))
                if mask is None:
                    sel = list(range(len(chunk)))
                else:
                    sel = mask_nonzero(mask)
                    if not isinstance(sel, list):
                        sel = sel.tolist()
                if not sel:
                    continue
                ctx.charge_cache_probe(len(sel))
                first = pid * per_page
                kept = [i for i in sel if not contains(first + i)]
                if kept:
                    parts.append(chunk if len(kept) == len(chunk)
                                 else chunk.take(kept))
            if parts:
                batch = Chunk.concat(parts)
                ctx.charge_emit(len(batch))
                yield batch

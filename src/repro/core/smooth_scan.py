"""The Smooth Scan operator — the paper's core contribution (Sections III-IV).

Smooth Scan is driven by the secondary index like a classical index scan,
but morphs its heap-access strategy as the observed selectivity evolves:

* **Mode 0** (only under non-eager triggers): a true index scan — one
  random heap fetch per probe, produced TIDs recorded in the Tuple ID
  cache.
* **Mode 1 — Entire Page Probe**: each fetched heap page is processed
  completely; all qualifying tuples on it are produced (or parked in the
  Result Cache when an interesting order must be preserved), and the page
  is recorded in the Page ID cache so it is never fetched again.
* **Mode 2+ — Flattening Access**: each probe fetches a *morphing region*
  of adjacent pages in one near-sequential run; the region size evolves
  under a :class:`~repro.core.policy.MorphPolicy` (doubling on selectivity
  increase, with Elastic also halving on decrease), capped at the
  configured maximum (2K pages ≈ 16MB, the paper's sweet spot).

The operator never consults optimizer statistics — its only inputs are an
index, a key range and a residual predicate.  With ``ordered=True`` it
emits in strict index-key order (usable under ORDER BY / merge joins),
otherwise tuples stream out as pages are processed.

Which rows qualify does not depend on the morphing — only *when* each is
met does — so a scan finds them once
(:class:`~repro.core.qualifying.QualifyingPositions`: the ascending
positions, in the heap's columnar image, of the rows that pass the key
range and the residual, produced when it pays) and a run of unseen pages
is a ``searchsorted`` cut into that array: its selection vector, its
``produced`` count and its ``pages_with_results``.  Around the cut a run
is one pool request, one Page ID cache run-mark and one count of each of
its charges; only the policy update between regions is sequential.
Index entries arrive a leaf of TIDs (image positions) at a time and are
tested against a live view of the Page ID bitmap.  With no auxiliary cache
(eager and unordered) batches are selection vectors over the image, so no
payload moves before a consumer reads it; Mode 0 and the Result Cache
hand-off stay per probe and emit row lists, as in the paper.  Every
charge is the paper's per-page / per-tuple charge;
``tests/golden_row_path.json`` pins them to the tuple-at-a-time pipeline
this engine grew out of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as _np

from repro.context import ExecutionContext
from repro.core.caches import PageIdCache, ResultCache, TupleIdCache
from repro.core.morph_stats import SmoothScanStats
from repro.core.policy import ElasticPolicy, MorphPolicy
from repro.core.qualifying import QualifyingPositions
from repro.core.trigger import EagerTrigger, Trigger
from repro.errors import PlanningError
from repro.exec.expressions import (
    KeyRange,
    Predicate,
    TruePredicate,
    require_columns,
)
from repro.exec.iterator import Batch, DEFAULT_BATCH_SIZE, Operator
from repro.storage.table import Table

_DEFAULT_RESULT_CACHE_PARTITIONS = 16

@dataclass
class _RunState:
    """Per-execution state: caches, stats and policy of one run."""

    stats: SmoothScanStats
    page_cache: PageIdCache
    tuple_cache: TupleIdCache | None
    result_cache: ResultCache | None
    policy: MorphPolicy
    max_region: int
    col_pos: int
    qualifying: QualifyingPositions


class SmoothScan(Operator):
    """Statistics-oblivious access path morphing between index and full scan.

    Args:
        table: the table to scan.
        column: indexed column driving the probes.
        key_range: key interval to scan (default: the whole index).
        residual: extra predicate applied to every candidate tuple.
        policy: morphing policy (default Elastic, the paper's choice).
        trigger: when smooth behaviour starts (default Eager).
        ordered: preserve index-key output order via the Result Cache.
        max_mode: 1 caps the operator at Entire Page Probe (the Fig. 6
            sensitivity curve); 2 enables Flattening Access.
        max_region_pages: overrides the engine's region cap.
        result_cache_partitions: key-range partitions for bulk eviction.
        result_cache_memory_limit: bytes before far partitions spill.
    """

    def __init__(self, table: Table, column: str,
                 key_range: KeyRange | None = None,
                 residual: Predicate | None = None,
                 policy: MorphPolicy | None = None,
                 trigger: Trigger | None = None,
                 ordered: bool = False,
                 max_mode: int = 2,
                 max_region_pages: int | None = None,
                 result_cache_partitions: int = _DEFAULT_RESULT_CACHE_PARTITIONS,
                 result_cache_memory_limit: int | None = None):
        if max_mode not in (1, 2):
            raise PlanningError(f"max_mode must be 1 or 2, got {max_mode}")
        self.table = table
        self.column = column
        self.index = table.index_on(column)
        self.key_range = key_range or KeyRange.all()
        self.residual = residual or TruePredicate()
        require_columns(table.schema, self.residual)
        self.policy = policy or ElasticPolicy()
        self.trigger = trigger or EagerTrigger()
        self.ordered = ordered
        self.max_mode = max_mode
        self.max_region_pages = max_region_pages
        self.result_cache_partitions = result_cache_partitions
        self.result_cache_memory_limit = result_cache_memory_limit
        self.schema = table.schema
        #: Statistics of the most recent execution.
        self.last_stats: SmoothScanStats | None = None

    def name(self) -> str:
        return (
            f"SmoothScan({self.table.name}.{self.column}, "
            f"policy={self.policy.name}, trigger={self.trigger.name}, "
            f"{'ordered' if self.ordered else 'unordered'})"
        )

    # -- per-run setup ----------------------------------------------------

    def _prepare(self, ctx: ExecutionContext) -> _RunState:
        """Build the caches, stats and policy state for one execution."""
        heap = self.table.heap
        stats = SmoothScanStats()
        self.last_stats = stats

        col_pos = self.schema.index_of(self.column)

        page_cache = PageIdCache(heap.num_pages)
        stats.page_cache_bytes = page_cache.memory_bytes

        tuple_cache: TupleIdCache | None = None
        if not self.trigger.eager:
            tuple_cache = TupleIdCache(heap.num_pages, heap.tuples_per_page)
            stats.tuple_cache_bytes = tuple_cache.memory_bytes

        result_cache: ResultCache | None = None
        if self.ordered:
            key_size = self.schema.columns[col_pos].byte_size
            entry_bytes = (
                self.schema.tuple_size(ctx.config.tuple_header) + key_size
            )
            result_cache = ResultCache(
                separators=self.index.root_key_separators(
                    self.result_cache_partitions
                ),
                bytes_per_entry=entry_bytes,
                memory_limit_bytes=self.result_cache_memory_limit,
                page_bytes=ctx.config.page_size,
            )
            stats.result_cache = result_cache.stats

        max_region = self.max_region_pages or ctx.config.max_region_pages
        if self.max_mode == 1:
            max_region = 1
        qualifying = QualifyingPositions(
            heap, self.index, self.key_range,
            self.key_range.predicate(self.column).bind_mask(self.schema),
            None if isinstance(self.residual, TruePredicate)
            else self.residual.bind_mask(self.schema),
        )
        tracer = ctx.runtime.tracer
        tracer.emit(
            "morph.start", query_id=tracer.current_query_id,
            policy=self.policy.name, trigger=self.trigger.name,
            ordered=self.ordered, max_mode=self.max_mode,
            heap_pages=heap.num_pages,
        )
        return _RunState(
            stats=stats,
            page_cache=page_cache,
            tuple_cache=tuple_cache,
            result_cache=result_cache,
            policy=self.policy,
            max_region=max_region,
            col_pos=col_pos,
            qualifying=qualifying,
        )

    # -- batch-vectorized execution ----------------------------------------

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        heap = self.table.heap
        state = self._prepare(ctx)
        stats = state.stats
        page_cache = state.page_cache
        tuple_cache = state.tuple_cache
        result_cache = state.result_cache
        policy = state.policy
        per_page = heap.tuples_per_page
        num_pages = heap.num_pages
        residual_fn = self.residual.bind(self.schema)  # Mode 0's, per tuple
        tracer = ctx.runtime.tracer
        region = policy.initial_region()
        mode0_active = not self.trigger.eager
        flattened = False
        pages_res_global = 0
        pages_seen_smooth = 0
        is_seen = page_cache.is_seen
        seen_bits = page_cache.seen_view()

        # With no auxiliary cache consuming TIDs (eager + unordered, the
        # common case) ``pending`` accumulates selection vectors over the
        # heap image (one per qualifying page run; a ``range`` when the
        # whole run qualified), joined at flush; otherwise it accumulates
        # rows.  Every row that enters ``pending`` is counted in
        # ``stats.produced`` as it does, so the rows pending across the
        # vectors are ``produced`` minus its value at the last flush.
        ordered = result_cache is not None
        columnar = tuple_cache is None and not ordered
        pending: list = []
        flushed = 0

        def full() -> bool:
            size = stats.produced - flushed if columnar else len(pending)
            return size >= DEFAULT_BATCH_SIZE

        def as_batch(parts: list) -> Batch:
            if not columnar:
                return parts
            if len(parts) == 1:  # a lone whole run stays a slice
                return heap.image().take(parts[0])
            return heap.image().take(_np.concatenate([
                _np.arange(p.start, p.stop) if type(p) is range else p
                for p in parts
            ]))

        # Invariant: ``stats.probes = probes`` must run immediately before
        # every yield — a generator can only be abandoned while suspended
        # at a yield, so this keeps reported internals current even under
        # early termination (e.g. Limit).  Page-ID-cache probes are
        # counted per leaf and charged in bulk at its end.
        probes = 0
        rng = self.key_range
        for leaf in self.index.scan_leaf_tids(
            ctx, lo=rng.lo, hi=rng.hi,
            lo_inclusive=rng.lo_inclusive, hi_inclusive=rng.hi_inclusive,
        ):
            n = len(leaf)
            ctx.charge_index_entry(n)
            pages = leaf // per_page
            page_checks = 0
            mode0_rows: list = []
            tids = None
            j = 0
            while j < n:
                if mode0_active or ordered:
                    # ---- Entry by entry, Mode 0 and the Result Cache,
                    # up to the next entry on an unseen page.
                    if tids is None:
                        # The leaf's TIDs and pages, and its rows in one
                        # gather (a payload read charges nothing).
                        tids, page_ids = leaf.tolist(), pages.tolist()
                        found = heap.image().take(leaf)
                        keys = found.column_values(state.col_pos)
                    for j in range(j, n):
                        tid, page = tids[j], page_ids[j]
                        probes += 1
                        if mode0_active:
                            # Per-probe random fetches until the trigger
                            # fires; inherently tuple-at-a-time.
                            if not mode0_rows:
                                # Reversed, so each probe pops its row.
                                mode0_rows = found[j:].to_rows()[::-1]
                            ctx.get_page(heap, page)
                            stats.mode0_page_fetches += 1
                            ctx.charge_inspect()
                            row = mode0_rows.pop()
                            if residual_fn(row):
                                stats.mode0_tuples += 1
                                stats.produced += 1
                                assert tuple_cache is not None
                                tuple_cache.add(tid)
                                ctx.charge_cache_insert()
                                ctx.charge_emit()
                                pending.append(row)
                                if full():
                                    stats.probes = probes
                                    yield pending
                                    pending = []
                            if self.trigger.should_morph(stats.produced):
                                mode0_active = False
                                stats.morphed_at = stats.produced
                                tracer.emit(
                                    "morph.trigger",
                                    query_id=tracer.current_query_id,
                                    value=float(stats.produced),
                                    probes=probes, trigger=self.trigger.name,
                                )
                                override = self.trigger.post_morph_policy()
                                if override is not None:
                                    policy = override
                            continue
                        if ordered:
                            # Smooth modes: the Result Cache first ...
                            key = keys[j]
                            result_cache.advance(key)
                            ctx.charge_cache_probe()
                            cached = result_cache.take(key, tid,
                                                       disk=ctx.disk)
                            if cached is not None:
                                stats.produced += 1
                                ctx.charge_emit()
                                pending.append(cached)
                                if full():
                                    stats.probes = probes
                                    yield pending
                                    pending = []
                                continue
                        # ... then the Page ID cache check.
                        page_checks += 1
                        if not is_seen(page):
                            break
                    else:
                        break
                    j += 1
                else:
                    # ---- Each entry is one Page-ID-cache check: the next
                    # entry's bit with plain integers, then the rest of
                    # the leaf against the live bitmap view, straight to
                    # the next unseen page.
                    k = j
                    if is_seen(int(pages[k])):
                        sub = pages[k:]
                        hits = _np.flatnonzero(
                            (seen_bits[sub >> 3] >> (sub & 7)) & 1 == 0)
                        if not hits.size:
                            probes += n - j
                            page_checks += n - j
                            break
                        k += int(hits[0])
                    probes += k - j + 1
                    page_checks += k - j + 1
                    tid, page = int(leaf[k]), int(pages[k])
                    j = k + 1

                # ---- Fetch and process the morphing region, emitting each
                # contiguous run of unseen pages as one whole batch.
                # ``_emit_run`` marks only the pages of its own run, so the
                # runs found now are the runs a page-by-page walk would find.
                region_pages = 0
                for run_start, run_len in page_cache.unseen_runs(
                        page, min(num_pages, page + region)):
                    self._emit_run(ctx, heap, run_start, run_len, state,
                                   tid, pending)
                    region_pages += run_len
                    if full():
                        stats.probes = probes
                        yield as_batch(pending)
                        pending = []
                        flushed = stats.produced

                region_pages_res = stats.pages_with_results - pages_res_global
                pages_res_global = stats.pages_with_results
                pages_seen_smooth += region_pages

                # ---- Policy update (Eqs. (1) and (2)).
                if region_pages > 0:
                    local_sel = region_pages_res / region_pages
                    global_sel = pages_res_global / pages_seen_smooth
                    region = min(state.max_region, max(1, policy.next_region(
                        region, local_sel, global_sel)))
                    stats.probes = probes
                    stats.region_trace.append((probes, region))
                    if region > stats.max_region_used:
                        stats.max_region_used = region
                    if region > 1 and not flattened:
                        # Mode 1 → Mode 2: the region first grew past one
                        # page, with the selectivities that drove it.
                        flattened = True
                        tracer.emit(
                            "morph.flatten",
                            query_id=tracer.current_query_id,
                            value=float(region),
                            local_selectivity=local_sel,
                            global_selectivity=global_sel,
                        )
            if page_checks:
                ctx.charge_cache_probe(page_checks)

        stats.probes = probes
        if pending:
            yield as_batch(pending)
        tracer.emit(
            "morph.finish", query_id=tracer.current_query_id,
            value=float(stats.pages_fetched),
            pages_fetched=stats.pages_fetched, produced=stats.produced,
            probes=stats.probes, max_region=stats.max_region_used,
            morphed_at=stats.morphed_at,
        )

    def _emit_run(self, ctx: ExecutionContext, heap, run_start: int,
                  run_len: int, state: _RunState, probe_tid: int,
                  out: list) -> None:
        """Probe one contiguous run of unseen pages into ``out``.

        One pool request, one Page ID cache run-mark, one cut into the
        scan's qualifying positions, and the run's page charges: a
        ``cache_insert`` per page and an ``inspect`` per row.  With no
        auxiliary cache ``out`` takes the cut itself, a selection vector;
        the caches want TIDs and rows, so there ``out`` takes rows — all
        of the run's when unordered, only the probe's own
        (``probe_tid``) when the Result Cache parks the rest to preserve
        an order.
        """
        stats = state.stats
        tuple_cache = state.tuple_cache
        result_cache = state.result_cache
        per_page = heap.tuples_per_page
        ctx.get_run(heap, run_start, run_len)
        state.page_cache.mark_run(run_start, run_len)
        stats.pages_fetched += run_len
        lo = run_start * per_page
        hi = min(lo + run_len * per_page, state.qualifying.rows)
        sel, pages_hit = state.qualifying.cut(lo, hi)
        stats.pages_with_results += pages_hit
        ctx.charge_cache_insert(run_len)
        ctx.charge_inspect(hi - lo)
        if not len(sel):
            return
        if tuple_cache is None and result_cache is None:
            stats.produced += len(sel)
            ctx.charge_emit(len(sel))
            out.append(sel)
            return
        at = _np.asarray(sel).tolist()
        rows = heap.image().take(sel).to_rows()
        found = range(len(at))
        if tuple_cache is not None:
            # Fig. 7b's post-morph overhead: a produced-tuple check for
            # every qualifying tuple found by Smooth Scan.
            ctx.charge_cache_probe(len(found))
            found = [k for k in found if not tuple_cache.contains(at[k])]
        if result_cache is not None:
            for k in found:
                row = rows[k]
                if at[k] == probe_tid:
                    stats.produced += 1
                    ctx.charge_emit()
                    out.append(row)
                else:
                    ctx.charge_cache_insert()
                    result_cache.insert(row[state.col_pos], at[k], row,
                                        disk=ctx.disk)
            return
        stats.produced += len(found)
        ctx.charge_emit(len(found))
        out += [rows[k] for k in found]

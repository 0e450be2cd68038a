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

Execution is batch-vectorized: index entries arrive one leaf at a time
(:meth:`~repro.index.btree.BTreeIndex.scan_batches`), morphing-region runs
are probed whole and their output accumulated into batches flushed at the
batch-size threshold — as positions in the heap's columnar image when no
auxiliary cache needs the rows (eager and unordered), so no payload moves
before a consumer reads it — and page probing compiles the key range and
residual predicate into masks and selection lists instead of calling a
closure per tuple.  Mode 0 and the Result Cache hand-off stay per probe
and emit row lists, as in the paper.  Every charge is the paper's
per-page / per-tuple charge; ``tests/golden_row_path.json`` pins them to
the tuple-at-a-time pipeline this engine grew out of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as _np

from repro.context import ExecutionContext
from repro.core.caches import PageIdCache, ResultCache, TupleIdCache
from repro.core.morph_stats import SmoothScanStats
from repro.core.policy import ElasticPolicy, MorphPolicy
from repro.core.trigger import EagerTrigger, Trigger
from repro.errors import PlanningError
from repro.exec.expressions import (
    KeyRange,
    Predicate,
    TruePredicate,
    range_mask,
    range_selector,
    require_columns,
)
from repro.storage.chunk import mask_and
from repro.exec.iterator import Batch, DEFAULT_BATCH_SIZE, Operator
from repro.index.btree import TID_SHIFT, TID_SLOT_MASK
from repro.storage.table import Table
from repro.storage.types import TID

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
        max_region = state.max_region
        col_pos = state.col_pos

        residual_fn = self.residual.bind(self.schema)
        qualify = range_selector(self.key_range, col_pos)
        residual_sel = (
            None if isinstance(self.residual, TruePredicate)
            else self.residual.bind_batch(self.schema)
        )
        # With no auxiliary cache consuming TIDs (eager + unordered, the
        # common case) page probing needs no slot positions — run fully
        # columnar: one key-range mask plus one residual mask per run of
        # pages, kept as positions in the heap image without touching a
        # row.
        fast_mask = None
        if state.tuple_cache is None and state.result_cache is None:
            fast_mask = range_mask(self.key_range, col_pos)
            if not isinstance(self.residual, TruePredicate):
                residual_mask = self.residual.bind_mask(self.schema)

                def fast_mask(chunk, _q=fast_mask, _r=residual_mask):
                    return mask_and(_q(chunk), _r(chunk))

        tracer = ctx.runtime.tracer
        region = policy.initial_region()
        mode0_active = not self.trigger.eager
        flattened = False
        pages_res_global = 0
        pages_seen_smooth = 0
        num_pages = heap.num_pages
        is_seen = page_cache.is_seen

        # In the columnar config ``pending`` accumulates selection vectors
        # over the heap image (one per qualifying page run; a ``range``
        # when the whole run qualified), joined at flush; otherwise it
        # accumulates rows as before.  Every row that enters ``pending``
        # is counted in ``stats.produced`` as it does, so the rows
        # pending across the parts are ``produced`` minus its value at
        # the last flush — no re-summing after every region.
        columnar = fast_mask is not None
        pending: list = []
        flushed = 0

        def pending_size(parts: list) -> int:
            return stats.produced - flushed if columnar else len(parts)

        def as_batch(parts: list) -> Batch:
            if not columnar:
                return parts
            if len(parts) == 1:  # a lone whole run stays a slice
                return heap.image().take(parts[0])
            return heap.image().take(_np.concatenate([
                _np.arange(p.start, p.stop) if type(p) is range else p
                for p in parts
            ]))

        # Hot-loop bookkeeping kept in locals: the probe ordinal and the
        # per-batch count of Page-ID-cache probes (charged in bulk per
        # leaf batch).  Invariant: ``stats.probes = probes`` must run
        # immediately before every yield — a generator can only be
        # abandoned while suspended at a yield, so this keeps reported
        # internals current even under early termination (e.g. Limit).
        probes = 0
        rng = self.key_range

        def probe_region(tid: TID) -> Iterator[Batch]:
            """Fetch/process the morphing region at ``tid``, yield flushes.

            Shared by the scalar and vectorized probe loops; updates the
            enclosing execution state (pending output, region size and
            the selectivity accounting) in place.
            """
            nonlocal pending, region, pages_res_global, pages_seen_smooth
            nonlocal flattened, flushed
            start = tid.page_id
            end = min(num_pages, start + region)
            region_pages = 0
            # ``_emit_run`` marks only the pages of its own run, so the
            # runs found now are the runs a page-by-page walk would find.
            for run_start, run_len in page_cache.unseen_runs(start, end):
                pending = self._emit_run(
                    ctx, heap, run_start, run_len,
                    state, qualify, residual_sel,
                    fast_mask, tid, pending,
                )
                region_pages += run_len
                if pending_size(pending) >= DEFAULT_BATCH_SIZE:
                    stats.probes = probes
                    yield as_batch(pending)
                    pending = []
                    flushed = stats.produced

            region_pages_res = stats.pages_with_results - pages_res_global
            pages_res_global = stats.pages_with_results
            pages_seen_smooth += region_pages

            # ---- Policy update (Eqs. (1) and (2)).
            if region_pages > 0 and pages_seen_smooth > 0:
                local_sel = region_pages_res / region_pages
                global_sel = pages_res_global / pages_seen_smooth
                region = min(
                    max_region,
                    max(1, policy.next_region(
                        region, local_sel, global_sel)),
                )
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

        # ---- Vectorized probe loop: with no auxiliary cache (and hence
        # no Mode 0 — non-eager triggers always build a Tuple ID cache),
        # each index entry reduces to one Page-ID-cache check.  Test a
        # whole leaf of packed codes against a live view of the cache
        # bitmap and jump straight to the next unseen page, recomputing
        # the seen mask only after each region fetch flips bits.
        if columnar:
            seen_bits = page_cache.seen_view()
            for codes in self.index.scan_leaf_codes(
                ctx, lo=rng.lo, hi=rng.hi,
                lo_inclusive=rng.lo_inclusive,
                hi_inclusive=rng.hi_inclusive,
            ):
                n = len(codes)
                ctx.charge_index_entry(n)
                pages = codes >> TID_SHIFT
                page_checks = 0
                j = 0
                while j < n:
                    sub = pages[j:]
                    seen = (seen_bits[sub >> 3] >> (sub & 7)) & 1
                    hits = _np.flatnonzero(seen == 0)
                    if not hits.size:
                        probes += n - j
                        page_checks += n - j
                        break
                    k = j + int(hits[0])
                    probes += k - j + 1
                    page_checks += k - j + 1
                    code = int(codes[k])
                    yield from probe_region(
                        TID(code >> TID_SHIFT, code & TID_SLOT_MASK)
                    )
                    j = k + 1
                if page_checks:
                    ctx.charge_cache_probe(page_checks)
            stats.probes = probes
            if pending:
                yield as_batch(pending)
            tracer.emit(
                "morph.finish", query_id=tracer.current_query_id,
                value=float(stats.pages_fetched),
                pages_fetched=stats.pages_fetched,
                produced=stats.produced, probes=stats.probes,
                max_region=stats.max_region_used,
                morphed_at=stats.morphed_at,
            )
            return

        for keys, tids in self.index.scan_batches(
            ctx, lo=rng.lo, hi=rng.hi,
            lo_inclusive=rng.lo_inclusive, hi_inclusive=rng.hi_inclusive,
        ):
            page_checks = 0
            mode0_rows: list = []
            for j in range(len(keys)):
                tid = tids[j]
                probes += 1

                # ---- Mode 0: per-probe random fetches until the trigger
                # fires; inherently tuple-at-a-time.
                if mode0_active:
                    if not mode0_rows:
                        # What is left of the leaf, in one gather (a
                        # payload read charges nothing); reversed, so
                        # each probe pops its row.
                        at = _np.array(tids[j:], dtype=_np.int64)
                        mode0_rows = heap.image().take(
                            at[:, 0] * heap.tuples_per_page + at[:, 1]
                        ).to_rows()
                        mode0_rows.reverse()
                    ctx.get_page(heap, tid.page_id)
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
                        if len(pending) >= DEFAULT_BATCH_SIZE:
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

                # ---- Smooth modes: Result Cache first (ordered only) ...
                if result_cache is not None:
                    key = keys[j]
                    result_cache.advance(key)
                    ctx.charge_cache_probe()
                    cached = result_cache.take(key, tid, disk=ctx.disk)
                    if cached is not None:
                        stats.produced += 1
                        ctx.charge_emit()
                        pending.append(cached)
                        if len(pending) >= DEFAULT_BATCH_SIZE:
                            stats.probes = probes
                            yield pending
                            pending = []
                        continue

                # ---- ... then the Page ID cache check.
                page_checks += 1
                if is_seen(tid.page_id):
                    continue

                # ---- Fetch and process the morphing region, emitting each
                # contiguous run of unseen pages as one whole batch.
                yield from probe_region(tid)
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
                  run_len: int, state: _RunState, qualify, residual_sel,
                  fast_mask, probe_tid: TID, out: list) -> list:
        """Vectorized run probe: append the run's output to ``out``.

        Fetches one contiguous run of unseen pages, filters each whole
        page through the compiled key-range/residual selectors, and
        appends produced rows (parking the rest in the Result Cache when
        an order must be preserved).  With ``fast_mask`` set (no
        auxiliary cache consumes TIDs) the run is instead masked once as
        a slice of the heap image — ``out`` then accumulates the
        qualifying *positions* (``page * tuples_per_page + slot``), not
        rows — and the per-page statistics come out of the positions.
        """
        stats = state.stats
        page_cache = state.page_cache
        tuple_cache = state.tuple_cache
        result_cache = state.result_cache
        col_pos = state.col_pos
        probe_page, probe_slot = probe_tid

        if fast_mask is not None:
            mark = page_cache.mark
            for page in ctx.get_run(heap, run_start, run_len):
                mark(page.page_id)
                ctx.charge_cache_insert()
                stats.pages_fetched += 1
                ctx.charge_inspect(len(page))
            run = heap.run_chunk(run_start, run_len)
            sel = run.sel  # the run's positions in the image: a range
            pages_hit = run_len
            mask = fast_mask(run)
            if mask is not None:
                hits = _np.flatnonzero(mask)
                if not hits.size:
                    return out
                if hits.size < len(run):
                    if run_len > 1:
                        pages_hit = 1 + _np.count_nonzero(
                            _np.diff(hits // heap.tuples_per_page))
                    sel = hits + sel.start
            stats.pages_with_results += pages_hit
            stats.produced += len(sel)
            ctx.charge_emit(len(sel))
            out.append(sel)
            return out

        # The run's rows in one gather, handed out page by page.
        run_rows = heap.run_chunk(run_start, run_len).to_rows()
        per_page = heap.tuples_per_page
        for page in ctx.get_run(heap, run_start, run_len):
            pid = page.page_id
            page_cache.mark(pid)
            ctx.charge_cache_insert()
            stats.pages_fetched += 1
            at = (pid - run_start) * per_page
            rows = run_rows[at:at + per_page]
            ctx.charge_inspect(len(rows))
            sel = qualify(rows)
            if sel and residual_sel is not None:
                sel = residual_sel(rows, sel)
            if not sel:
                continue
            stats.pages_with_results += 1
            if tuple_cache is not None:
                # Fig. 7b's post-morph overhead: a produced-tuple check
                # for every qualifying tuple found by Smooth Scan.
                ctx.charge_cache_probe(len(sel))
                contains = tuple_cache.contains
                sel = [i for i in sel if not contains(TID(pid, i))]
                if not sel:
                    continue
            if result_cache is None:
                stats.produced += len(sel)
                ctx.charge_emit(len(sel))
                out += [rows[i] for i in sel]
            else:
                insert = result_cache.insert
                for i in sel:
                    if pid == probe_page and i == probe_slot:
                        stats.produced += 1
                        ctx.charge_emit()
                        out.append(rows[i])
                    else:
                        row = rows[i]
                        ctx.charge_cache_insert()
                        insert(row[col_pos], TID(pid, i), row, disk=ctx.disk)
        return out

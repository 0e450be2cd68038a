"""The morphable join sketched in Section IV-B (extension).

"By performing caching of additional (qualifying) tuples from the inner
input found along the way (i.e., for each page we fetch, we put the
remaining tuples in the cache), INLJ morphs into a variant of Hash Join
over time, with the index used only when a tuple is not found in the
cache."

:class:`MorphingIndexJoin` implements exactly that: every inner heap page
it fetches is probed entirely and *all* its tuples are parked in an
in-memory Tuple Cache keyed by join key; each outer row probes the cache
first and falls back to the index only on a miss (and only for keys whose
pages have not all been seen — tracked with the same Page ID cache Smooth
Scan uses).  With enough key repetition in the outer input the operator
converges to hash-join behaviour: index descents stop, heap pages are
read at most once.

The paper leaves this operator as future work and does not evaluate it;
it is provided as an extension, exercised by its own tests and an
ablation benchmark, and is not used by the reproduction experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.context import ExecutionContext
from repro.core.caches import PageIdCache
from repro.exec.expressions import Predicate, TruePredicate
from repro.exec.iterator import Chunk, Operator
from repro.exec.joins import _joined_schema, joined_chunk
from repro.storage.table import Table


@dataclass
class MorphJoinStats:
    """Instrumentation of one MorphingIndexJoin execution."""

    outer_rows: int = 0
    cache_hits: int = 0
    index_probes: int = 0
    pages_fetched: int = 0
    emitted: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Probes served from the Tuple Cache / all outer probes."""
        total = self.cache_hits + self.index_probes
        return self.cache_hits / total if total else 0.0


class MorphingIndexJoin(Operator):
    """INLJ that morphs toward a hash join via inner-tuple caching.

    Args:
        outer: outer input operator.
        inner_table: inner table with an index on ``inner_column``.
        inner_column: the join column on the inner side.
        outer_key: the join column on the outer side.
        residual: optional predicate over the joined schema.
    """

    def __init__(self, outer: Operator, inner_table: Table,
                 inner_column: str, outer_key: str,
                 residual: Predicate | None = None):
        self.outer = outer
        self.inner_table = inner_table
        self.inner_column = inner_column
        self.index = inner_table.index_on(inner_column)
        self.outer_pos = outer.schema.index_of(outer_key)
        self.inner_key_pos = inner_table.schema.index_of(inner_column)
        self.schema = _joined_schema(outer.schema, inner_table.schema)
        self.residual = residual or TruePredicate()
        #: Statistics of the most recent execution.
        self.last_stats: MorphJoinStats | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.outer,)

    def name(self) -> str:
        return f"MorphingIndexJoin({self.inner_table.name})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Probe the morphing cache one outer batch at a time.

        The cache maps a key to the heap-image positions of its inner
        rows, so the probe loop collects (outer position, inner TID)
        pairs and a batch's output is their
        :func:`~repro.exec.joins.joined_chunk`, narrowed by one residual
        mask.  A NULL key matches nothing.
        """
        heap = self.inner_table.heap
        per_page = heap.tuples_per_page
        stats = MorphJoinStats()
        self.last_stats = stats
        residual = self.residual.bind_chunk(self.schema)
        names = self.schema.column_names
        key_pos = self.inner_key_pos

        tuple_cache: dict[object, list[int]] = {}
        page_cache = PageIdCache(heap.num_pages)
        complete_keys: set[object] = set()
        cache_get = tuple_cache.get
        is_seen = page_cache.is_seen

        for obatch in self.outer.batches(ctx):
            stats.outer_rows += len(obatch)
            ctx.charge_cache_probe(len(obatch))
            outer_at: list[int] = []
            inner_at: list[int] = []
            for i, key in enumerate(obatch.column_values(self.outer_pos)):
                if key not in complete_keys:
                    # Index consulted only for not-yet-complete keys.
                    stats.index_probes += 1
                    for tid in self.index.lookup(ctx, key):
                        page = tid // per_page
                        if not is_seen(page):
                            self._absorb_page(
                                ctx, heap, page,
                                tuple_cache, page_cache, key_pos, stats,
                            )
                    complete_keys.add(key)
                else:
                    stats.cache_hits += 1
                tids = cache_get(key, ())
                outer_at += [i] * len(tids)
                inner_at += tids
            ctx.charge_inspect(len(inner_at))
            if not inner_at:
                continue
            kept = residual(joined_chunk(names, obatch, outer_at,
                                         heap.image(), inner_at))
            if kept is not None:
                stats.emitted += len(kept)
                ctx.charge_emit(len(kept))
                yield kept

    @staticmethod
    def _absorb_page(ctx: ExecutionContext, heap, page_id: int,
                     tuple_cache: dict, page_cache: PageIdCache,
                     key_pos: int, stats: MorphJoinStats) -> None:
        """Fetch an inner page and cache every tuple on it (the morph).

        The cache keeps each row's heap-image position under its key; a
        NULL key is not cached, as nothing can find it.
        """
        ctx.get_page(heap, page_id)
        page_cache.mark(page_id)
        stats.pages_fetched += 1
        keys = heap.run_chunk(page_id, 1).column_values(key_pos)
        ctx.charge_inspect(len(keys))
        ctx.charge_cache_insert(len(keys))
        setdefault = tuple_cache.setdefault
        first = page_id * heap.tuples_per_page
        for slot, key in enumerate(keys):
            if key is not None:
                setdefault(key, []).append(first + slot)

"""LRU buffer pool.

All timed page access goes through here.  A hit charges a tiny CPU cost;
a miss delegates to the :class:`~repro.storage.disk.SimulatedDisk`, which
charges sequential or random I/O and counts requests.  ``reset()`` empties
the pool, reproducing the paper's cold runs ("we clear database buffer
caches as well as OS file system caches before each query execution").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.errors import StorageError
from repro.storage.disk import SimulatedDisk
from repro.storage.page import HeapPage


class PagedFile(Protocol):
    """Anything the buffer pool can cache pages of (heaps, index files)."""

    file_id: int

    @property
    def num_pages(self) -> int: ...

    def page(self, page_id: int) -> HeapPage: ...


@dataclass
class BufferStats:
    """Hit/miss counters for one measured run."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of page requests served from memory."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        """Zero both counters."""
        self.hits = 0
        self.misses = 0


class BufferPool:
    """A page-granular LRU cache over the simulated disk."""

    def __init__(self, disk: SimulatedDisk, capacity_pages: int,
                 hit_cpu_ms: float = 5.0e-5):
        if capacity_pages < 1:
            raise StorageError("buffer pool capacity must be >= 1 page")
        self.disk = disk
        self.capacity_pages = capacity_pages
        self.hit_cpu_ms = hit_cpu_ms
        self.stats = BufferStats()
        self._pages: OrderedDict[tuple[int, int], object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def occupancy(self) -> float:
        """Fraction of the pool currently holding pages (0.0 – 1.0).

        The contention signal consumed by
        :class:`~repro.core.trigger.BufferPressureTrigger`: a full
        shared pool means the next miss evicts someone's resident page.
        """
        return len(self._pages) / self.capacity_pages

    def contains(self, file: PagedFile, page_id: int) -> bool:
        """True if the page is resident (does not touch LRU order)."""
        return (file.file_id, page_id) in self._pages

    def get_page(self, file: PagedFile, page_id: int,
                 stream_hint: bool = False) -> HeapPage:
        """Return one page, charging a hit or a (random/seq) miss.

        ``stream_hint`` marks reads that belong to a per-file sequential
        stream (B+-tree leaf chains) so interleaved reads of other files do
        not turn them into random accesses.
        """
        key = (file.file_id, page_id)
        if key in self._pages:
            self._pages.move_to_end(key)
            self.stats.hits += 1
            self.disk.clock.charge_cpu(self.hit_cpu_ms)
            return self._pages[key]  # type: ignore[return-value]
        self.stats.misses += 1
        self.disk.read_page(file.file_id, page_id, stream_hint=stream_hint)
        page = file.page(page_id)
        self._admit(key, page)
        return page

    def get_run(self, file: PagedFile, start_page: int,
                n_pages: int) -> list[HeapPage]:
        """Return ``n_pages`` contiguous pages, batching misses into runs.

        Resident pages are served from memory; contiguous spans of missing
        pages are fetched with :meth:`SimulatedDisk.read_run`, so a morphing
        region of Smooth Scan costs one random jump plus sequential reads.
        """
        if n_pages <= 0:
            return []
        end = min(start_page + n_pages, file.num_pages)
        # One tight loop with bulk bookkeeping: stats, the buffer-hit CPU
        # charge and LRU eviction are applied once per run, not per page,
        # so handing a morphing region to a batch operator costs O(pages)
        # dict operations and nothing else.
        resident = self._pages
        file_id = file.file_id
        file_page = file.page
        capacity = self.capacity_pages
        pages: list[HeapPage] = []
        append = pages.append
        hits = 0
        run_start: int | None = None
        for pid in range(start_page, end):
            key = (file_id, pid)
            page = resident.get(key)
            if page is not None:
                if run_start is not None:
                    self.disk.read_run(file_id, run_start, pid - run_start)
                    run_start = None
                resident.move_to_end(key)
                hits += 1
            else:
                if run_start is None:
                    run_start = pid
                page = file_page(pid)
                resident[key] = page
                # Strict LRU: evict at admission time, so a run larger
                # than the free capacity cannot transiently hold extra
                # pages (and mid-run evictions turn later "hits" into
                # honest misses, exactly as per-page admission did).
                if len(resident) > capacity:
                    resident.popitem(last=False)
            append(page)  # type: ignore[arg-type]
        if run_start is not None:
            self.disk.read_run(file_id, run_start, end - run_start)
        if hits:
            self.stats.hits += hits
            self.disk.clock.charge_cpu(self.hit_cpu_ms * hits)
        misses = len(pages) - hits
        if misses:
            self.stats.misses += misses
        return pages

    def touch_pages(self, file: PagedFile,
                    page_ids: Iterable[int]) -> list[bool]:
        """Request ``page_ids`` one at a time, in order; was each a hit?

        The pool and disk transitions of one :meth:`get_page` per id — a
        miss is a single-page read, admitted (and the LRU victim evicted)
        before the next id is looked at — for callers that need no page
        object.  The hit CPU charge is *not* made here: the caller places
        ``hit_cpu_ms`` per returned hit inside its own per-tuple charge
        sequence, where :meth:`get_page` would have charged it.
        """
        resident = self._pages
        stats = self.stats
        file_id = file.file_id
        hits = []
        for pid in page_ids:
            key = (file_id, pid)
            hit = key in resident
            if hit:
                resident.move_to_end(key)
                stats.hits += 1
            else:
                stats.misses += 1
                self.disk.read_page(file_id, pid)
                self._admit(key, file.page(pid))
            hits.append(hit)
        return hits

    def reset(self) -> None:
        """Evict everything and zero stats (start of a cold run)."""
        self._pages.clear()
        self.stats.reset()

    def _admit(self, key: tuple[int, int], page: object) -> None:
        self._pages[key] = page
        while len(self._pages) > self.capacity_pages:
            self._pages.popitem(last=False)

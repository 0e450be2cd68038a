"""LRU buffer pool: it tracks which pages are resident, nothing else.

All timed page access goes through here.  A page is a number, so the
pool holds ``(file_id, page_id)`` keys in LRU order.  A hit charges a
tiny CPU cost; a miss delegates to the
:class:`~repro.storage.disk.SimulatedDisk`, which charges sequential or
random I/O and counts requests.  ``reset()`` empties the pool,
reproducing the paper's cold runs ("we clear database buffer caches as
well as OS file system caches before each query execution").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.errors import StorageError, UnknownPageError
from repro.storage.disk import SimulatedDisk


class PagedFile(Protocol):
    """Anything the buffer pool can cache pages of (heaps, index files)."""

    file_id: int

    @property
    def num_pages(self) -> int: ...


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


def _outside(file: PagedFile, page_id: int) -> UnknownPageError:
    """The error for a request of a page ``file`` does not have."""
    return UnknownPageError(
        f"page {page_id} outside file {file.file_id} of {file.num_pages} pages"
    )


class BufferPool:
    """A page-granular LRU cache of residency over the simulated disk."""

    def __init__(self, disk: SimulatedDisk, capacity_pages: int,
                 hit_cpu_ms: float = 5.0e-5):
        if capacity_pages < 1:
            raise StorageError("buffer pool capacity must be >= 1 page")
        self.disk = disk
        self.capacity_pages = capacity_pages
        self.hit_cpu_ms = hit_cpu_ms
        self.stats = BufferStats()
        #: Resident ``(file_id, page_id)`` keys, least recently used first.
        self._pages: OrderedDict[tuple[int, int], None] = OrderedDict()

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
                 stream_hint: bool = False) -> None:
        """Request one page, charging a hit or a (random/seq) miss.

        ``stream_hint`` marks reads that belong to a per-file sequential
        stream (B+-tree leaf chains) so interleaved reads of other files do
        not turn them into random accesses.
        """
        key = (file.file_id, page_id)
        if key in self._pages:
            self._pages.move_to_end(key)
            self.stats.hits += 1
            self.disk.clock.charge_cpu(self.hit_cpu_ms)
            return
        if not 0 <= page_id < file.num_pages:
            raise _outside(file, page_id)
        self.stats.misses += 1
        self.disk.read_page(file.file_id, page_id, stream_hint=stream_hint)
        self._admit(key)

    def get_run(self, file: PagedFile, start_page: int,
                n_pages: int) -> range:
        """Request ``n_pages`` contiguous pages, batching misses into runs.

        Returns the page ids requested — the run clipped at the end of the
        file.  Resident pages are served from memory; contiguous spans of
        missing pages are fetched with :meth:`SimulatedDisk.read_run`, so a
        morphing region of Smooth Scan costs one random jump plus
        sequential reads.
        """
        end = min(start_page + n_pages, file.num_pages)
        pages = range(start_page, max(start_page, end))
        if not pages:
            return pages
        if start_page < 0:  # the end is clipped; only the start can be out
            raise _outside(file, start_page)
        # One tight loop with bulk bookkeeping: stats and the buffer-hit
        # CPU charge are applied once per run, not per page, so handing a
        # morphing region to a batch operator costs O(pages) dict
        # operations and nothing else.
        resident = self._pages
        file_id = file.file_id
        capacity = self.capacity_pages
        hits = 0
        run_start: int | None = None
        for pid in pages:
            key = (file_id, pid)
            if key in resident:
                if run_start is not None:
                    self._read_span(file_id, run_start, pid)
                    run_start = None
                resident.move_to_end(key)
                hits += 1
            else:
                if run_start is None:
                    run_start = pid
                resident[key] = None
                # Strict LRU: evict at admission time, so a run larger
                # than the free capacity cannot transiently hold extra
                # pages (and mid-run evictions turn later "hits" into
                # honest misses, exactly as per-page admission did).
                if len(resident) > capacity:
                    resident.popitem(last=False)
        if run_start is not None:
            self._read_span(file_id, run_start, end)
        if hits:
            self.stats.hits += hits
            self.disk.clock.charge_cpu(self.hit_cpu_ms * hits)
        self.stats.misses += len(pages) - hits
        return pages

    def _read_span(self, file_id: int, first: int, stop: int) -> None:
        """Read the admitted span ``[first, stop)``, or take it back."""
        try:
            self.disk.read_run(file_id, first, stop - first)
        except BaseException:
            for pid in range(first, stop):
                self._pages.pop((file_id, pid), None)
            raise

    def touch_pages(self, file: PagedFile,
                    page_ids: Iterable[int]) -> list[bool]:
        """Request ``page_ids`` one at a time, in order; was each a hit?

        The pool and disk transitions of one :meth:`get_page` per id — a
        miss is a single-page read, admitted (and the LRU victim evicted)
        before the next id is looked at.  The hit CPU charge is *not*
        made here: the caller places ``hit_cpu_ms`` per returned hit
        inside its own per-tuple charge sequence, where :meth:`get_page`
        would have charged it.
        """
        resident = self._pages
        stats = self.stats
        file_id = file.file_id
        num_pages = file.num_pages
        hits = []
        for pid in page_ids:
            key = (file_id, pid)
            hit = key in resident
            if hit:
                resident.move_to_end(key)
                stats.hits += 1
            else:
                if not 0 <= pid < num_pages:
                    raise _outside(file, pid)
                stats.misses += 1
                self.disk.read_page(file_id, pid)
                self._admit(key)
            hits.append(hit)
        return hits

    def reset(self) -> None:
        """Evict everything and zero stats (start of a cold run)."""
        self._pages.clear()
        self.stats.reset()

    def _admit(self, key: tuple[int, int]) -> None:
        self._pages[key] = None
        while len(self._pages) > self.capacity_pages:
            self._pages.popitem(last=False)

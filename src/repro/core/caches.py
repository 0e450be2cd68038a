"""Smooth Scan's auxiliary data structures (Section IV-A).

* :class:`PageIdCache` — one bit per heap page; set once the page has been
  processed, so no heap page is ever fetched twice.
* :class:`TupleIdCache` — one bit per tuple; records tuples produced by a
  traditional index scan before morphing was triggered, preventing result
  duplication under the Optimizer/SLA-driven triggers.
* :class:`ResultCache` — a hash store, partitioned by key range (boundaries
  read off the index root), holding qualifying tuples found during
  entire-page probes that must wait for their index probe to preserve an
  interesting order.  A tuple is held as its TID (its position in the
  heap's columnar image); the row is read from the image when it is
  emitted, and the cache's memory accounting prices the tuple it stands
  for.  Partitions are bulk-evicted once the probe key passes
  their range, and the furthest partitions can spill to overflow files
  under memory pressure.

Both bitmap caches really are bitmaps (a ``bytearray`` with bit ops) so the
memory footprints reported by experiments match the paper's "a couple of
MB for hundreds of GB of data" observation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as _np

from repro.errors import ExecutionError


class _Bitmap:
    """A plain bit set over ``[0, size)``."""

    __slots__ = ("size", "_bits", "_count")

    def __init__(self, size: int):
        self.size = size
        self._bits = bytearray((size + 7) // 8)
        self._count = 0

    def array_view(self):
        """Live ``uint8`` view of the byte array.

        The backing ``bytearray`` is allocated once and never resized, so
        the view stays valid and reflects every :meth:`set` as it happens.
        Callers must treat it as read-only.
        """
        return _np.frombuffer(self._bits, dtype=_np.uint8)

    def get(self, i: int) -> bool:
        return bool(self._bits[i >> 3] & (1 << (i & 7)))

    def zero_runs(self, start: int, end: int) -> list[tuple[int, int]]:
        """Maximal runs ``(first, length)`` of clear bits in ``[start, end)``.

        Read off the slice as one integer, whose lowest set bit is found
        in a handful of word operations however long the clear run below
        it — the cost follows the number of runs, not of bits.
        """
        word = int.from_bytes(self._bits[start >> 3:(end + 7) >> 3],
                              "little") >> (start & 7)
        clear = ~word & ((1 << (end - start)) - 1)
        runs = []
        while clear:
            low = clear & -clear
            # Adding the run's lowest bit carries through the run: what
            # is left of it is one bit, just past the run's end.
            rest = clear + low
            first = low.bit_length() - 1
            runs.append((start + first,
                         (rest & -rest).bit_length() - 1 - first))
            clear &= rest
        return runs

    def set(self, i: int) -> bool:
        """Set bit ``i``; returns True if it was newly set."""
        mask = 1 << (i & 7)
        byte = self._bits[i >> 3]
        if byte & mask:
            return False
        self._bits[i >> 3] = byte | mask
        self._count += 1
        return True

    def set_run(self, start: int, n: int) -> int:
        """Set bits ``[start, start + n)``; returns how many were new.

        One integer operation on the bytes the run touches, the way
        :meth:`zero_runs` reads them; written back in place, so an
        :meth:`array_view` stays live.
        """
        first, last = start >> 3, (start + n + 7) >> 3
        run = ((1 << n) - 1) << (start & 7)
        word = int.from_bytes(self._bits[first:last], "little")
        new = n - (word & run).bit_count()
        self._bits[first:last] = (word | run).to_bytes(last - first, "little")
        self._count += new
        return new

    @property
    def count(self) -> int:
        return self._count

    @property
    def memory_bytes(self) -> int:
        return len(self._bits)


class PageIdCache:
    """One bit per heap page: has Smooth Scan processed it yet?"""

    def __init__(self, num_pages: int):
        self._bitmap = _Bitmap(max(1, num_pages))
        self.num_pages = num_pages

    def is_seen(self, page_id: int) -> bool:
        """True when the page has already been processed."""
        return self._bitmap.get(page_id)

    def unseen_runs(self, start: int, end: int) -> list[tuple[int, int]]:
        """Maximal runs ``(first page, length)`` of unprocessed pages in
        ``[start, end)``, ascending."""
        return self._bitmap.zero_runs(start, end)

    def seen_view(self):
        """Live read-only ``uint8`` view of the bitmap bytes.

        Bit ``page_id`` of the view (little-endian within each byte, as
        :meth:`is_seen` reads it) tracks the page's seen state, updating
        in place as pages are marked — letting the batch engine test a
        whole run of page ids with one vector expression.
        """
        return self._bitmap.array_view()

    def mark(self, page_id: int) -> bool:
        """Record the page as processed; True if it was new.

        Every mark on a zero-page table is out of bounds — there is no
        page 0 to process.
        """
        if not 0 <= page_id < self.num_pages:
            raise ExecutionError(
                f"page id {page_id} outside table of {self.num_pages} pages"
            )
        return self._bitmap.set(page_id)

    def mark_run(self, start: int, n: int) -> int:
        """Record pages ``[start, start + n)`` as processed — one
        :meth:`mark` per page, in one step; returns how many were new."""
        if n <= 0:
            return 0
        if start < 0 or start + n > self.num_pages:
            # The first page of the run that a per-page walk would refuse.
            bad = start if start < 0 else max(start, self.num_pages)
            raise ExecutionError(
                f"page id {bad} outside table of {self.num_pages} pages"
            )
        return self._bitmap.set_run(start, n)

    @property
    def pages_seen(self) -> int:
        """How many distinct pages have been processed (``#P_seen``)."""
        return self._bitmap.count

    @property
    def memory_bytes(self) -> int:
        """Bitmap footprint (140KB per million pages, as in §VI-B)."""
        return self._bitmap.memory_bytes


class TupleIdCache:
    """One bit per tuple, at its TID: was it produced before morphing
    started?"""

    def __init__(self, num_pages: int, tuples_per_page: int):
        self._bitmap = _Bitmap(max(1, num_pages * tuples_per_page))
        self.recorded = 0

    def contains(self, tid: int) -> bool:
        """True when the tuple was already produced pre-morph."""
        return self._bitmap.get(tid)

    def add(self, tid: int) -> None:
        """Record a tuple produced by the traditional index scan."""
        if self._bitmap.set(tid):
            self.recorded += 1

    @property
    def memory_bytes(self) -> int:
        """Bitmap footprint in bytes."""
        return self._bitmap.memory_bytes


@dataclass
class ResultCacheStats:
    """Instrumentation for Figure 9a."""

    inserts: int = 0
    probes: int = 0
    hits: int = 0
    evicted_entries: int = 0
    spills: int = 0
    unspills: int = 0
    #: Overflow pages written by spills / read back by unspills — the two
    #: halves of the cache's disk traffic, accounted separately.
    spill_pages_written: int = 0
    unspill_pages_read: int = 0
    peak_entries: int = 0
    peak_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Tuple requests served from the cache / total requests."""
        return self.hits / self.probes if self.probes else 0.0


class ResultCache:
    """Range-partitioned store of qualifying tuples awaiting their probe.

    ``separators`` (typically from
    :meth:`~repro.index.btree.BTreeIndex.root_key_separators`) split the key
    domain into partitions; :meth:`advance` bulk-drops every partition whose
    key range lies entirely below the current probe key.  When
    ``memory_limit_bytes`` is set, the partitions furthest ahead of the
    probe position spill to simulated overflow files and are read back on
    first probe.
    """

    def __init__(self, separators: list, bytes_per_entry: int,
                 memory_limit_bytes: int | None = None,
                 page_bytes: int = 8192):
        self.separators = sorted(separators)
        self.bytes_per_entry = max(1, bytes_per_entry)
        self.memory_limit_bytes = memory_limit_bytes
        self.page_bytes = page_bytes
        n_parts = len(self.separators) + 1
        self._partitions: list[set[int]] = [set() for _ in range(n_parts)]
        self._spilled: list[set[int] | None] = [None] * n_parts
        self._entries = 0
        #: Lowest partition the probe key has not yet passed; everything
        #: below it is known-evicted, so :meth:`advance` is O(1) per call
        #: when no new separator is crossed.
        self._min_live = 0
        self.stats = ResultCacheStats()

    # -- partition helpers -------------------------------------------------

    def partition_of(self, key: object) -> int:
        """Index of the partition whose key range contains ``key``."""
        return bisect_right(self.separators, key)

    @property
    def num_partitions(self) -> int:
        """Total partition count (``len(separators) + 1``)."""
        return len(self._partitions)

    @property
    def entries(self) -> int:
        """Entries currently held in memory (spilled ones excluded)."""
        return self._entries

    @property
    def memory_bytes(self) -> int:
        """Approximate in-memory footprint."""
        return self._entries * self.bytes_per_entry

    def _partition_pages(self, part: set) -> int:
        return max(1, math.ceil(len(part) * self.bytes_per_entry
                                / self.page_bytes))

    # -- operations --------------------------------------------------------

    def insert(self, key: object, tid: int, disk=None) -> None:
        """Park a qualifying tuple until its index probe arrives.

        ``key`` must not lie below a separator the probe has already
        passed (:meth:`advance` is monotone): such a tuple's probe is
        gone, so parking it could only leak.  Smooth Scan's index-order
        probing guarantees this; other callers get a loud error instead
        of a silent leak.
        """
        i = self.partition_of(key)
        if i < self._min_live:
            raise ExecutionError(
                f"insert of key {key!r} into partition {i}, below the "
                f"already-advanced probe position {self._min_live}"
            )
        if self._spilled[i] is not None:
            self._spilled[i].add(tid)
        else:
            self._partitions[i].add(tid)
            self._entries += 1
        self.stats.inserts += 1
        if self._entries > self.stats.peak_entries:
            self.stats.peak_entries = self._entries
            self.stats.peak_bytes = self.memory_bytes
        if (self.memory_limit_bytes is not None
                and self.memory_bytes > self.memory_limit_bytes):
            self._spill_furthest(i, disk)

    def take(self, key: object, tid: int, disk=None) -> bool:
        """Whether ``tid`` is parked (it stays parked).

        Spilled partitions are read back (charging sequential I/O on
        ``disk``) before the probe — "overflow files that are read upon
        reaching the range keys belong to".
        """
        i = self.partition_of(key)
        self.stats.probes += 1
        if self._spilled[i] is not None:
            self._unspill(i, disk)
        hit = tid in self._partitions[i]
        if hit:
            self.stats.hits += 1
        return hit

    def advance(self, key: object) -> int:
        """Bulk-evict all partitions entirely below ``key``.

        Returns the number of evicted entries, spilled ones included —
        dropping a partition's overflow file evicts its entries just as
        surely as clearing its in-memory set.  Partition ``j`` covers
        keys below ``separators[j]``; it is passed once
        ``key >= separators[j]``.  Scanning starts at the lowest live
        partition, so the common no-new-separator-crossed probe costs one
        comparison instead of a walk over every separator.
        """
        evicted = 0
        j = self._min_live
        separators = self.separators
        while j < len(separators) and key >= separators[j]:
            part = self._partitions[j]
            if part:
                evicted += len(part)
                self._entries -= len(part)
                self._partitions[j] = set()
            spilled = self._spilled[j]
            if spilled is not None:
                evicted += len(spilled)
                self._spilled[j] = None
            j += 1
        self._min_live = j
        self.stats.evicted_entries += evicted
        return evicted

    # -- spilling ----------------------------------------------------------

    def _spill_furthest(self, current_partition: int, disk) -> None:
        """Spill the in-memory partition furthest ahead of the probe.

        Preference order: partitions beyond the one being inserted into,
        then (when the insert partition is itself the furthest) that
        partition — something must give once the limit is exceeded.
        """
        candidates = [
            j for j in range(self.num_partitions - 1, -1, -1)
            if self._partitions[j] and self._spilled[j] is None
        ]
        if not candidates:
            return
        j = candidates[0]
        part = self._partitions[j]
        pages = self._partition_pages(part)
        if disk is not None:
            disk.overflow_write(pages)
        self._spilled[j] = part
        self._entries -= len(part)
        self._partitions[j] = set()
        self.stats.spills += 1
        self.stats.spill_pages_written += pages

    def _unspill(self, i: int, disk) -> None:
        """Read a spilled partition back from its overflow file.

        Charges a sequential *read* of the partition's pages — the write
        was already paid when the partition spilled; reading it back must
        not charge the write-plus-read cost of a fresh spill.
        """
        part = self._spilled[i]
        if part is None:
            return
        pages = self._partition_pages(part)
        if disk is not None:
            disk.overflow_read(pages)
        self._spilled[i] = None
        self._partitions[i] |= part
        self._entries += len(part)
        self.stats.unspills += 1
        self.stats.unspill_pages_read += pages

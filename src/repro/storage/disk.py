"""The simulated disk, and the clock that counts what it and the CPU do.

The paper's results are driven by three quantities the real hardware
provided: the cost of a sequential page read, the cost of a random page
read, and the number of I/O requests issued.  :class:`SimulatedDisk`
accounts exactly those.  A shared :class:`SimClock` counts simulated
events — sequential and random page units, and the nine CPU actions of
:class:`~repro.config.CpuCosts` — as integers.  Milliseconds are derived
when read: each count times its unit cost, summed in one fixed order
(:data:`KINDS`), which gives the CPU/IO breakdown of Figure 4 without
ever touching a real device (the ``repro_why`` substitution: real
page-level I/O from Python is too slow for faithful benchmarks).  So a
total does not depend on the order charges were made in, and a charge of
``n`` events is the same as ``n`` charges of one.

Sequential vs random classification follows head position: a read of page
``p`` of the same file is sequential when it lies within a short forward
window of the previous read (disk prefetchers make small forward skips
nearly free — the paper relies on this for Sort Scan's "nearly sequential"
pattern); anything else pays the random cost.  Multi-page runs issue
``ceil(n / extent)`` requests, mirroring OS read-ahead; single random reads
are one request each.  This makes Table II's request counts reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.config import CpuCosts

#: Every kind of event the clock counts, in the order milliseconds are
#: summed: the :class:`~repro.config.CpuCosts` actions, then sequential
#: and random page units.
KINDS: tuple[str, ...] = (*(f.name for f in fields(CpuCosts)),
                          "seq_page", "rand_page")
SEQ_PAGE = KINDS.index("seq_page")
RAND_PAGE = KINDS.index("rand_page")
BUFFER_HIT = KINDS.index("buffer_hit")
CPU_KINDS = range(SEQ_PAGE)
IO_KINDS = (SEQ_PAGE, RAND_PAGE)

#: Event counts by overlap divisor: ``{divisor: [count per kind]}``.
Counts = dict[int, list[int]]
_ZEROS = (0,) * len(KINDS)


@dataclass(frozen=True)
class DiskProfile:
    """Cost profile of a storage device.

    ``seq_cost`` and ``rand_cost`` are abstract per-page units — the paper's
    competitive analysis uses (1, 10) for HDD and (1, 2) for SSD — and
    ``ms_per_unit`` converts units into simulated milliseconds so reported
    times resemble wall-clock seconds at the original scale.
    """

    name: str
    seq_cost: float
    rand_cost: float
    ms_per_unit: float

    @classmethod
    def hdd(cls) -> "DiskProfile":
        """The paper's HDD: 10:1 random:sequential, ~130 MB/s transfer.

        0.0615 ms/unit is one 8KB page at 130 MB/s, the advertised transfer
        rate of the paper's SAS RAID-0 array.
        """
        return cls(name="hdd", seq_cost=1.0, rand_cost=10.0, ms_per_unit=0.0615)

    @classmethod
    def ssd(cls) -> "DiskProfile":
        """The paper's SSD: 2:1 random:sequential, ~550 MB/s transfer."""
        return cls(name="ssd", seq_cost=1.0, rand_cost=2.0, ms_per_unit=0.0145)

    def page_ms(self, sequential: bool) -> float:
        """Simulated milliseconds to read one page."""
        unit = self.seq_cost if sequential else self.rand_cost
        return unit * self.ms_per_unit


def unit_costs(cpu: CpuCosts, profile: DiskProfile) -> tuple[float, ...]:
    """Milliseconds per event of each kind, in :data:`KINDS` order."""
    return (*(getattr(cpu, kind) for kind in KINDS[:SEQ_PAGE]),
            profile.page_ms(True), profile.page_ms(False))


def counted_ms(counts: Counts, units: tuple[float, ...], kinds) -> float:
    """Milliseconds of ``kinds`` in ``counts``: per divisor, ascending, the
    dot product of its counts with ``units`` in kind order, divided by the
    divisor."""
    total = 0.0
    for divisor in sorted(counts):
        row = counts[divisor]
        ms = 0.0
        for kind in kinds:
            ms += row[kind] * units[kind]
        total += ms / divisor
    return total


def add_counts(into: Counts, now: Counts, before: Counts | None = None) -> None:
    """Add ``now - before`` into ``into``, row by row; no row of ``into``
    is ever all zeros, so equal charges give equal dicts."""
    for divisor, row in now.items():
        base = None if before is None else before.get(divisor)
        if base is None:
            if not any(row):
                continue
            base = _ZEROS
        elif row == base:
            continue
        have = into.get(divisor)
        into[divisor] = ([a - b for a, b in zip(row, base)] if have is None
                         else [h + a - b for h, a, b in zip(have, row, base)])


class SimClock:
    """Counts simulated events; I/O wait and CPU milliseconds are derived.

    The clock is *shared*: every query a runtime executes charges into
    the same counters, and each attribution window of
    :class:`~repro.runtime.EngineRuntime` is a snapshot of them and a
    diff.  A charge adds ``n`` to one kind of :attr:`counts`, the row of
    the current overlap :attr:`divisor`: 1 outside an Exchange, the
    number of shards still producing (times the enclosing divisor)
    inside a shard pull — N shard workers progress concurrently, so each
    unit of per-shard work advances *completion time* by 1/N.
    """

    def __init__(self, units: tuple[float, ...] | None = None):
        #: Milliseconds per event, by kind (:func:`unit_costs`).
        self.units = (units if units is not None
                      else unit_costs(CpuCosts(), DiskProfile.hdd()))
        self.divisor = 1
        self.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(io_ms={self.io_ms!r}, cpu_ms={self.cpu_ms!r})"

    @property
    def io_ms(self) -> float:
        """Blocking I/O wait, in simulated milliseconds."""
        return counted_ms(self.rows, self.units, IO_KINDS)

    @property
    def cpu_ms(self) -> float:
        """CPU processing time, in simulated milliseconds."""
        return counted_ms(self.rows, self.units, CPU_KINDS)

    @property
    def total_ms(self) -> float:
        """Total simulated elapsed time in milliseconds."""
        return self.io_ms + self.cpu_ms

    def set_divisor(self, divisor: int) -> None:
        """Count charges in the row of ``divisor`` until the next call."""
        self.divisor = divisor
        row = self.rows.get(divisor)
        if row is None:
            row = self.rows[divisor] = [0] * len(KINDS)
        #: The row charges land in: ``counts[kind] += n``.
        self.counts = row

    def reset(self) -> None:
        """Zero every counter (start of a measured run).

        Attribution state is untouched: resets happen between queries
        (``EngineRuntime.cold_start`` refuses to run inside a window).
        """
        self.rows: Counts = {}
        self.set_divisor(self.divisor)

    def snapshot(self) -> Counts:
        """An independent copy of the counters, for window diffs."""
        return {d: row.copy() for d, row in self.rows.items()}


@dataclass
class DiskStats:
    """Aggregate I/O accounting for one measured run (Table II columns)."""

    requests: int = 0
    pages_read: int = 0
    seq_pages: int = 0
    rand_pages: int = 0
    bytes_read: int = 0
    pages_written: int = 0
    bytes_written: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.requests = 0
        self.pages_read = 0
        self.seq_pages = 0
        self.rand_pages = 0
        self.bytes_read = 0
        self.pages_written = 0
        self.bytes_written = 0

    def snapshot(self) -> "DiskStats":
        """Return an independent copy of the current counters."""
        return DiskStats(
            requests=self.requests,
            pages_read=self.pages_read,
            seq_pages=self.seq_pages,
            rand_pages=self.rand_pages,
            bytes_read=self.bytes_read,
            pages_written=self.pages_written,
            bytes_written=self.bytes_written,
        )

    def diff(self, before: "DiskStats") -> "DiskStats":
        """Counters accumulated since ``before`` was snapshotted."""
        return DiskStats(
            requests=self.requests - before.requests,
            pages_read=self.pages_read - before.pages_read,
            seq_pages=self.seq_pages - before.seq_pages,
            rand_pages=self.rand_pages - before.rand_pages,
            bytes_read=self.bytes_read - before.bytes_read,
            pages_written=self.pages_written - before.pages_written,
            bytes_written=self.bytes_written - before.bytes_written,
        )

    def add(self, other: "DiskStats") -> None:
        """Fold ``other``'s counters into this block (aggregation).

        The one canonical field enumeration alongside :meth:`snapshot`
        and :meth:`diff` — ledger attribution and aggregation build on
        these three, so a new counter added here propagates everywhere.
        """
        self.requests += other.requests
        self.pages_read += other.pages_read
        self.seq_pages += other.seq_pages
        self.rand_pages += other.rand_pages
        self.bytes_read += other.bytes_read
        self.pages_written += other.pages_written
        self.bytes_written += other.bytes_written


@dataclass
class SimulatedDisk:
    """Charges simulated time and counts requests for page accesses.

    The disk knows nothing about page *contents* — pages live in Python
    objects — it only models the cost of moving them, as page units on
    the clock (whose unit costs carry the device's :class:`DiskProfile`).
    ``file_id`` spaces keep the head-position bookkeeping of independent
    files (heaps, index files) separate.
    """

    clock: SimClock
    page_size: int = 8192
    extent_pages: int = 16
    seq_window: int = 16
    stats: DiskStats = field(default_factory=DiskStats)
    _head: tuple[int, int] | None = None
    _file_heads: dict[int, int] = field(default_factory=dict)

    def _is_sequential(self, file_id: int, page_id: int,
                       stream_hint: bool = False) -> bool:
        """True when the read continues (or nearly continues) the last one.

        With ``stream_hint`` the read is also sequential when it continues
        the last read *of the same file*, even if other files were touched
        in between — modeling per-stream prefetching (a B+-tree leaf chain
        stays sequential while heap pages are fetched between leaves, the
        assumption behind Eq. (11)'s ``#leaves_res × seq_cost`` term).
        """
        if self._head is not None:
            head_file, head_page = self._head
            if head_file == file_id and (
                head_page < page_id <= head_page + self.seq_window
            ):
                return True
        if stream_hint and file_id in self._file_heads:
            last = self._file_heads[file_id]
            return last < page_id <= last + self.seq_window
        return False

    def read_page(self, file_id: int, page_id: int,
                  stream_hint: bool = False) -> None:
        """Charge one page read; sequential iff it continues the last read."""
        sequential = self._is_sequential(file_id, page_id, stream_hint)
        self.clock.counts[SEQ_PAGE if sequential else RAND_PAGE] += 1
        self.stats.requests += 1
        self.stats.pages_read += 1
        self.stats.bytes_read += self.page_size
        if sequential:
            self.stats.seq_pages += 1
        else:
            self.stats.rand_pages += 1
        self._head = (file_id, page_id)
        self._file_heads[file_id] = page_id

    def read_run(self, file_id: int, start_page: int, n_pages: int) -> None:
        """Charge a contiguous ``n_pages`` read starting at ``start_page``.

        The first page pays the random cost unless the head already sits
        just before ``start_page``; the rest stream sequentially.  Requests
        are counted per extent, emulating read-ahead batching.
        """
        if n_pages <= 0:
            return
        first_sequential = self._is_sequential(file_id, start_page)
        counts = self.clock.counts
        if first_sequential:
            counts[SEQ_PAGE] += n_pages
        else:
            counts[RAND_PAGE] += 1
            counts[SEQ_PAGE] += n_pages - 1
        self.stats.requests += -(-n_pages // self.extent_pages)  # ceil div
        self.stats.pages_read += n_pages
        self.stats.bytes_read += n_pages * self.page_size
        if first_sequential:
            self.stats.seq_pages += n_pages
        else:
            self.stats.rand_pages += 1
            self.stats.seq_pages += n_pages - 1
        self._head = (file_id, start_page + n_pages - 1)
        self._file_heads[file_id] = start_page + n_pages - 1

    def spill(self, n_pages: int) -> None:
        """Charge an external-sort spill of ``n_pages``: write runs + read
        them back, both sequential (2n page transfers, batched requests)."""
        if n_pages <= 0:
            return
        self.clock.counts[SEQ_PAGE] += 2 * n_pages
        self.stats.requests += 2 * -(-n_pages // self.extent_pages)
        self.stats.pages_read += n_pages
        self.stats.bytes_read += n_pages * self.page_size
        self.stats.pages_written += n_pages
        self.stats.bytes_written += n_pages * self.page_size
        self._head = None

    def overflow_write(self, n_pages: int) -> None:
        """Charge a sequential *write* of ``n_pages`` to an overflow file.

        One half of a spill: the Result Cache pays this when a partition
        leaves memory, and pays :meth:`overflow_read` only if and when the
        partition is actually probed again.
        """
        if n_pages <= 0:
            return
        self.clock.counts[SEQ_PAGE] += n_pages
        self.stats.requests += -(-n_pages // self.extent_pages)  # ceil div
        self.stats.pages_written += n_pages
        self.stats.bytes_written += n_pages * self.page_size
        self._head = None

    def overflow_read(self, n_pages: int) -> None:
        """Charge a sequential read-back of ``n_pages`` from an overflow
        file ("overflow files that are read upon reaching the range keys
        belong to")."""
        if n_pages <= 0:
            return
        self.clock.counts[SEQ_PAGE] += n_pages
        self.stats.requests += -(-n_pages // self.extent_pages)  # ceil div
        self.stats.pages_read += n_pages
        self.stats.bytes_read += n_pages * self.page_size
        self._head = None

    def head_state(self) -> tuple[int, int] | None:
        """The current head position, opaque, for :meth:`set_head_state`.

        The Exchange operator models one spindle per shard: it saves the
        head after each shard slice and restores it before the next pull
        of the *same* shard, so interleaved shards do not pay each
        other's seek penalty.  Shard files have disjoint ``file_id``
        spaces, so swapping the global head is sufficient —
        ``_file_heads`` (per-stream prefetch state) never conflicts.
        """
        return self._head

    def set_head_state(self, state: tuple[int, int] | None) -> None:
        """Restore a head position captured by :meth:`head_state`."""
        self._head = state

    def reset(self) -> None:
        """Clear statistics and head position — and nothing else.

        The clock deliberately stays untouched: it belongs to the
        shared :class:`~repro.runtime.EngineRuntime`, whose
        ``cold_start()`` is the one place that resets buffer, disk and
        clock together (the paper's cold-run discipline).  Call that
        for cold-run semantics; call this only to zero the disk's own
        accounting.
        """
        self.stats.reset()
        self._head = None
        self._file_heads.clear()

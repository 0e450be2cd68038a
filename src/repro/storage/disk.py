"""The simulated disk: the substrate that replaces real page I/O.

The paper's results are driven by three quantities the real hardware
provided: the cost of a sequential page read, the cost of a random page
read, and the number of I/O requests issued.  :class:`SimulatedDisk`
accounts exactly those.  A shared :class:`SimClock` accumulates simulated
I/O-wait and CPU milliseconds, giving the CPU/IO breakdown of Figure 4
without ever touching a real device (the ``repro_why`` substitution: real
page-level I/O from Python is too slow for faithful benchmarks).

Sequential vs random classification follows head position: a read of page
``p`` of the same file is sequential when it lies within a short forward
window of the previous read (disk prefetchers make small forward skips
nearly free — the paper relies on this for Sort Scan's "nearly sequential"
pattern); anything else pays the random cost.  Multi-page runs issue
``ceil(n / extent)`` requests, mirroring OS read-ahead; single random reads
are one request each.  This makes Table II's request counts reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import CostLedger


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


def _add_each(total: float, ms) -> float:
    """``total += m`` for every ``m`` of the array ``ms``, left to right."""
    return float(_np.add.accumulate(_np.concatenate(((total,), ms)))[-1])


@dataclass
class SimClock:
    """Accumulates simulated time, split into I/O wait and CPU work.

    The clock is *shared*: every query a runtime executes charges into
    the same totals.  When an attribution window is open (see
    :class:`~repro.runtime.EngineRuntime`), charges are additionally
    routed into that window's per-query :class:`~repro.runtime.
    CostLedger`, which is how interleaved queries keep isolated
    measurements over one shared clock.
    """

    io_ms: float = 0.0
    cpu_ms: float = 0.0
    #: Elapsed-time multiplier for overlapped work.  The Exchange
    #: operator sets this to ``1 / live_shards`` around shard pulls: N
    #: shard workers progress concurrently, so each unit of per-shard
    #: work advances *completion time* by 1/N.  At the default 1.0 the
    #: multiplication is an exact float no-op, so serial execution is
    #: bit-identical with or without this field.
    scale: float = 1.0
    #: The per-query ledger charges are currently attributed to, set by
    #: ``EngineRuntime.begin_attribution`` / ``end_attribution``.
    ledger: "CostLedger | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def total_ms(self) -> float:
        """Total simulated elapsed time in milliseconds."""
        return self.io_ms + self.cpu_ms

    def charge_io(self, ms: float) -> None:
        """Add blocking I/O wait time."""
        ms *= self.scale
        self.io_ms += ms
        ledger = self.ledger
        if ledger is not None:
            ledger.io_ms += ms

    def charge_cpu(self, ms: float) -> None:
        """Add CPU processing time."""
        ms *= self.scale
        self.cpu_ms += ms
        ledger = self.ledger
        if ledger is not None:
            ledger.cpu_ms += ms

    def charge_cpu_seq(self, costs: Sequence[float]) -> None:
        """Charge every element of ``costs``, in order, in one call.

        Bit-identical to one :meth:`charge_cpu` per element:
        ``add.accumulate`` is a strict left-to-right running sum, started
        at the current total (and at the open ledger's), over the same
        per-element ``ms * scale`` products.  This is what lets a
        per-tuple charge sequence be computed as an array without
        becoming a different float sum.
        """
        ms = _np.asarray(costs, dtype=_np.float64) * self.scale
        self.cpu_ms = _add_each(self.cpu_ms, ms)
        ledger = self.ledger
        if ledger is not None:
            ledger.cpu_ms = _add_each(ledger.cpu_ms, ms)

    def reset(self) -> None:
        """Zero both counters (start of a measured run).

        Attribution state is untouched: resets happen between queries
        (``EngineRuntime.cold_start`` refuses to run inside a window).
        """
        self.io_ms = 0.0
        self.cpu_ms = 0.0

    def snapshot(self) -> tuple[float, float]:
        """Return ``(io_ms, cpu_ms)`` for delta measurements."""
        return (self.io_ms, self.cpu_ms)


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
    objects — it only models the cost of moving them.  ``file_id`` spaces
    keep the head-position bookkeeping of independent files (heaps, index
    files) separate.
    """

    profile: DiskProfile
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
        self.clock.charge_io(self.profile.page_ms(sequential))
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
        self.clock.charge_io(self.profile.page_ms(first_sequential))
        self.clock.charge_io(self.profile.page_ms(True) * (n_pages - 1))
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
        self.clock.charge_io(self.profile.page_ms(True) * 2 * n_pages)
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
        self.clock.charge_io(self.profile.page_ms(True) * n_pages)
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
        self.clock.charge_io(self.profile.page_ms(True) * n_pages)
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

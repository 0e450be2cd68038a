"""Shared engine runtime + per-query cost ledgers.

One :class:`EngineRuntime` is the *physical* substrate a
:class:`~repro.database.Database` owns exactly once and every query it
executes shares: the simulated clock, the simulated disk (one head
position, one aggregate :class:`~repro.storage.disk.DiskStats`), the
buffer pool (one set of resident pages) and the physical catalog of
tables and file ids.  Concurrent queries genuinely contend on it — one
client's random index probes seek the shared disk head away from
another's sequential run, and evictions land on whoever is resident.

What each query *measures*, by contrast, is private: a
:class:`CostLedger` holds exactly the events counted while that query
was running.  Every counter is an integer — the clock's event counts
per kind and overlap divisor, the disk's :class:`~repro.storage.disk.
DiskStats` and the pool's hits and misses — and milliseconds are
derived from the counts when read.  Attribution happens through
*windows*: a :class:`~repro.exec.stats.StreamingRun` opens one around
every batch it pulls (:meth:`EngineRuntime.begin_attribution` /
:meth:`EngineRuntime.end_attribution`), and an Exchange opens a nested
one around every shard pull.  Each window is one snapshot of all the
counters when it opens and one diff, folded into its ledger, when it
closes.  Summing the ledgers of every query therefore reproduces the
shared totals *exactly* — no charge is lost or double-attributed —
while interleaved queries report correct isolated costs.

Reset responsibilities live in one place: :meth:`EngineRuntime.
cold_start` (and only it) implements the paper's cold-run discipline —
buffer pool contents *and* stats, disk head *and* stats, and the clock,
together.  ``SimulatedDisk.reset()`` deliberately does not touch the
clock: the clock belongs to the runtime, not to the disk.  A cold start
while another query still streams would silently corrupt that query's
execution, so it raises instead (the guard behind
``Database.cold_run``).
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import EngineConfig
from repro.errors import ExecutionError
from repro.storage.buffer import BufferPool
from repro.storage.disk import (
    CPU_KINDS,
    IO_KINDS,
    Counts,
    DiskProfile,
    DiskStats,
    SimClock,
    SimulatedDisk,
    add_counts,
    counted_ms,
    unit_costs,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.stats import StreamingRun
    from repro.storage.table import Table

#: Smallest buffer pool an auto-sized runtime will use.
MIN_AUTO_BUFFER_PAGES = 64

#: shared_buffers ≈ total heap size / this fraction (auto-sizing).
AUTO_BUFFER_FRACTION = 8


@dataclass
class CostLedger:
    """Every simulated cost one query incurred, isolated from the rest.

    The per-query counterpart of the shared runtime's aggregate
    counters: the clock's event counts (:class:`~repro.storage.disk.
    SimClock`), the Table-II I/O accounting, and buffer hit/miss counts
    — attributed through the runtime's attribution windows, so ledgers
    of interleaved queries never bleed into each other.  Two ledgers are
    equal when they counted the same events; ``units``, the milliseconds
    per event the counts are read with, is the price list, not part of
    what was charged.  A ledger without one takes the first it is added.
    """

    counts: Counts = field(default_factory=dict)
    disk: DiskStats = field(default_factory=DiskStats)
    buffer_hits: int = 0
    buffer_misses: int = 0
    units: tuple[float, ...] | None = field(default=None, compare=False)

    @property
    def io_ms(self) -> float:
        """Simulated I/O wait this query spent, in milliseconds."""
        return counted_ms(self.counts, self.units, IO_KINDS)

    @property
    def cpu_ms(self) -> float:
        """Simulated CPU time this query spent, in milliseconds."""
        return counted_ms(self.counts, self.units, CPU_KINDS)

    @property
    def total_ms(self) -> float:
        """Total simulated time this query spent (I/O wait + CPU)."""
        return self.io_ms + self.cpu_ms

    def snapshot(self) -> "CostLedger":
        """An independent copy of the current state."""
        return CostLedger(
            counts={d: row.copy() for d, row in self.counts.items()},
            disk=self.disk.snapshot(),
            buffer_hits=self.buffer_hits,
            buffer_misses=self.buffer_misses,
            units=self.units,
        )

    def add(self, other: "CostLedger") -> None:
        """Fold ``other``'s charges into this ledger (aggregation)."""
        add_counts(self.counts, other.counts)
        self.disk.add(other.disk)
        self.buffer_hits += other.buffer_hits
        self.buffer_misses += other.buffer_misses
        if self.units is None:
            self.units = other.units

    def to_dict(self) -> dict:
        """JSON-ready shape (wire-protocol ``summary`` frames).

        Every counter is an integer and the unit costs round-trip
        exactly through JSON, so :meth:`from_dict` rebuilds an equal
        ledger — the conservation checks survive the wire.
        """
        return {
            "counts": [[d, row] for d, row in sorted(self.counts.items())],
            "units": None if self.units is None else list(self.units),
            "buffer_hits": self.buffer_hits,
            "buffer_misses": self.buffer_misses,
            "disk": dataclasses.asdict(self.disk),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CostLedger":
        """Rebuild a ledger from :meth:`to_dict` output."""
        units = data["units"]
        return cls(
            counts={d: list(row) for d, row in data["counts"]},
            disk=DiskStats(**data["disk"]),
            buffer_hits=data["buffer_hits"],
            buffer_misses=data["buffer_misses"],
            units=None if units is None else tuple(units),
        )

    def summary(self) -> dict:
        """The ledger as a report shows it: derived milliseconds, disk
        stats and buffer counts (the form trace files keep)."""
        return {
            "io_ms": self.io_ms,
            "cpu_ms": self.cpu_ms,
            "buffer_hits": self.buffer_hits,
            "buffer_misses": self.buffer_misses,
            "disk": dataclasses.asdict(self.disk),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CostLedger(io={self.io_ms / 1000:.3f}s "
            f"cpu={self.cpu_ms / 1000:.3f}s "
            f"reads={self.disk.pages_read} "
            f"buffer={self.buffer_hits}h/{self.buffer_misses}m)"
        )


class EngineRuntime:
    """The shared physical substrate of one engine instance.

    Owns the pieces every concurrently-executing query contends on —
    :class:`~repro.storage.disk.SimClock`,
    :class:`~repro.storage.disk.SimulatedDisk`,
    :class:`~repro.storage.buffer.BufferPool` and the physical catalog
    (tables, file-id allocation) — plus the attribution machinery that
    diffs charges into per-query :class:`CostLedger`\\ s and the
    registry of live streaming runs that guards cold starts.
    """

    def __init__(self, config: EngineConfig, profile: DiskProfile):
        self.config = config
        self.profile = profile
        self.clock = SimClock(unit_costs(config.cpu, profile))
        self.disk = SimulatedDisk(
            clock=self.clock,
            page_size=config.page_size,
            extent_pages=config.extent_pages,
        )
        self.buffer = BufferPool(
            disk=self.disk,
            capacity_pages=config.buffer_pool_pages
            or MIN_AUTO_BUFFER_PAGES,
        )
        # Deferred import: the tracer reads this runtime's clock, so
        # the telemetry package sits above this module.
        from repro.telemetry.tracer import Tracer
        #: Structured trace emission (disabled by default, zero
        #: simulated cost — reads the clock, never charges it).
        self.tracer = Tracer(self.clock)
        #: Physical catalog: every table (heap + indexes) of the engine.
        self.tables: dict[str, "Table"] = {}
        self._next_file_id = 0
        self._active: CostLedger | None = None
        self._active_start: tuple = ()
        self._shard_active: CostLedger | None = None
        self._shard_start: tuple = ()
        # Weak refs: a stream nobody can reach anymore (its cursor was
        # dropped undrained) cannot observe a cache reset, so it stops
        # guarding cold starts the moment it becomes unreachable.
        self._live: list[weakref.ref["StreamingRun"]] = []

    # -- physical catalog -------------------------------------------------

    def allocate_file_id(self) -> int:
        """A fresh engine-unique file id (heaps, index files)."""
        fid = self._next_file_id
        self._next_file_id += 1
        return fid

    def autosize_buffer(self) -> None:
        """Size an auto buffer pool to 1/8 of total heap pages."""
        if self.config.buffer_pool_pages is not None:
            return
        total = sum(t.num_pages for t in self.tables.values())
        self.buffer.capacity_pages = max(
            MIN_AUTO_BUFFER_PAGES, total // AUTO_BUFFER_FRACTION
        )

    # -- per-query cost attribution ---------------------------------------

    def _window(self) -> tuple:
        """Every counter a window diffs, as of now."""
        stats = self.buffer.stats
        return (self.clock.snapshot(), self.disk.stats.snapshot(),
                stats.hits, stats.misses)

    def _fold(self, ledger: CostLedger, start: tuple) -> None:
        """Add every counter's change since ``start`` into ``ledger``."""
        counts, disk, hits, misses = start
        add_counts(ledger.counts, self.clock.rows, counts)
        ledger.units = self.clock.units
        ledger.disk.add(self.disk.stats.diff(disk))
        ledger.buffer_hits += self.buffer.stats.hits - hits
        ledger.buffer_misses += self.buffer.stats.misses - misses

    def begin_attribution(self, ledger: CostLedger) -> None:
        """Open an attribution window: charges now belong to ``ledger``.

        Windows must not nest — concurrent queries interleave at batch
        boundaries (each pull wrapped in its own window), they do not
        run inside one another.  The counters are snapshotted here and
        diffed into the ledger at :meth:`end_attribution`.
        """
        if self._active is not None:
            raise ExecutionError(
                "an attribution window is already open; interleave "
                "queries at batch boundaries instead of nesting them"
            )
        self._active = ledger
        self._active_start = self._window()

    def end_attribution(self) -> None:
        """Close the open window, folding counter deltas into its ledger."""
        ledger = self._active
        if ledger is None:
            raise ExecutionError("no attribution window is open")
        self._active = None
        self._fold(ledger, self._active_start)

    def begin_shard_attribution(self, ledger: CostLedger) -> None:
        """Open a *nested* per-shard window inside the query's window.

        Shard-parallel execution decomposes one query's charges by
        shard: the Exchange operator wraps each shard slice in one of
        these windows so per-shard ledgers tile the parent ledger.  It is
        the same snapshot and diff as :meth:`begin_attribution`, kept
        apart from the outer window, so the parent ledger still receives
        every charge while the shard ledger records its share.  Shard
        windows must not nest in each other.
        """
        if self._shard_active is not None:
            raise ExecutionError(
                "a shard attribution window is already open; shard "
                "slices interleave at batch boundaries, they do not nest"
            )
        self._shard_active = ledger
        self._shard_start = self._window()

    def end_shard_attribution(self) -> None:
        """Close the open shard window, folding deltas into its ledger."""
        ledger = self._shard_active
        if ledger is None:
            raise ExecutionError("no shard attribution window is open")
        self._shard_active = None
        self._fold(ledger, self._shard_start)

    def totals(self) -> CostLedger:
        """The shared aggregate counters, as a ledger-shaped snapshot.

        Summing every query's ledger since the last cold start must
        equal this — the conservation property the test suite asserts.
        """
        counts: Counts = {}
        add_counts(counts, self.clock.rows)
        return CostLedger(
            counts=counts,
            disk=self.disk.stats.snapshot(),
            buffer_hits=self.buffer.stats.hits,
            buffer_misses=self.buffer.stats.misses,
            units=self.clock.units,
        )

    # -- live streams and cold-start semantics -----------------------------

    def register_stream(self, run: "StreamingRun") -> None:
        """Track a streaming run whose plan is live on this runtime."""
        self._live.append(weakref.ref(run))

    def unregister_stream(self, run: "StreamingRun") -> None:
        """Forget a drained/closed streaming run (idempotent)."""
        self._live = [ref for ref in self._live
                      if ref() is not None and ref() is not run]

    @property
    def live_streams(self) -> tuple["StreamingRun", ...]:
        """Reachable streaming runs started but not yet drained/closed."""
        runs = tuple(run for ref in self._live
                     if (run := ref()) is not None)
        self._live = [weakref.ref(run) for run in runs]
        return runs

    def cold_start(self) -> None:
        """Reset the whole substrate for a measured cold run.

        THE single owner of cold-run semantics: re-sizes an auto buffer
        pool, then resets the buffer (contents and stats), the disk
        (head position and stats) and the clock, reproducing the
        paper's "we clear database buffer caches as well as OS file
        system caches before each query execution".

        Raises :class:`~repro.errors.ExecutionError` when any streaming
        run is still live — resetting caches under a draining cursor
        would silently corrupt its execution and its measurement.
        Drain or close live cursors first.
        """
        if self._active is not None:
            raise ExecutionError(
                "cold start requested inside an attribution window"
            )
        live = self.live_streams
        if live:
            raise ExecutionError(
                f"cold start requested while {len(live)} streaming "
                "run(s) are still live; drain or close them first"
            )
        self.autosize_buffer()
        self.buffer.reset()
        self.disk.reset()
        self.clock.reset()

"""Engine-wide configuration.

All tunables of the simulated database engine live in one frozen dataclass so
that experiments are fully described by (workload, config) pairs.  Defaults
mirror the paper's PostgreSQL 9.2.1 setup: 8KB pages, 64-byte micro-benchmark
tuples at 120 tuples/page, a 16MB (2K-page) cap on the morphing region, and
an HDD with a 10:1 random-to-sequential page cost ratio.

The CPU cost constants encode the paper's guiding ratio that a single disk
I/O corresponds to roughly a million CPU instructions [Graefe, Modern B-Tree
Techniques]: inspecting one tuple costs about four orders of magnitude less
simulated time than one random page read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class CpuCosts:
    """Simulated CPU time, in milliseconds, charged per elementary action.

    Attributes:
        tuple_inspect: evaluating the predicate against one stored tuple.
        tuple_emit: handing one qualifying tuple to the parent operator.
        compare: one comparison inside a sort.
        hash_op: one hash/equality probe (hash join build/probe, group-by).
        cache_probe: one probe of a Smooth Scan auxiliary cache.
        cache_insert: one insert into a Smooth Scan auxiliary cache.
        buffer_hit: serving a page from the buffer pool without disk I/O.
        index_entry: advancing one (key, TID) entry along a B+-tree leaf.
        exchange_row: moving one row through an exchange merge — the
            coordinator-side cost of shard-parallel execution.
    """

    tuple_inspect: float = 2.0e-4
    tuple_emit: float = 1.0e-4
    compare: float = 1.0e-4
    hash_op: float = 1.5e-4
    cache_probe: float = 5.0e-5
    cache_insert: float = 8.0e-5
    buffer_hit: float = 5.0e-5
    index_entry: float = 5.0e-5
    exchange_row: float = 5.0e-5


@dataclass(frozen=True)
class EngineConfig:
    """Complete configuration of the simulated engine.

    Attributes:
        page_size: bytes per heap/index page (PostgreSQL default 8192).
        page_header: bytes reserved per page for the header; with 64-byte
            tuples this yields the paper's 120 tuples/page.
        tuple_header: per-tuple overhead in bytes, included in tuple size.
        buffer_pool_pages: LRU buffer capacity in pages. ``None`` sizes the
            pool lazily to 1/8 of the largest table, emulating a
            ``shared_buffers`` much smaller than the data set.
        extent_pages: pages fetched per sequential I/O request by full scans
            (OS read-ahead granularity); drives Table II request counts.
        work_mem_pages: sort memory; larger inputs use external merge sort.
        max_region_pages: Smooth Scan morphing-region cap (paper: 2K pages,
            i.e. 16MB).
        cpu: CPU cost constants.
    """

    page_size: int = 8192
    page_header: int = 512
    tuple_header: int = 24
    buffer_pool_pages: int | None = None
    extent_pages: int = 16
    work_mem_pages: int = 512
    max_region_pages: int = 2048
    cpu: CpuCosts = field(default_factory=CpuCosts)

    def __post_init__(self) -> None:
        if self.page_size <= self.page_header:
            raise ConfigError(
                f"page_size ({self.page_size}) must exceed page_header "
                f"({self.page_header})"
            )
        if self.extent_pages < 1:
            raise ConfigError("extent_pages must be >= 1")
        if self.max_region_pages < 1:
            raise ConfigError("max_region_pages must be >= 1")
        if self.work_mem_pages < 1:
            raise ConfigError("work_mem_pages must be >= 1")
        if self.buffer_pool_pages is not None and self.buffer_pool_pages < 1:
            raise ConfigError("buffer_pool_pages must be >= 1 or None")

    @property
    def usable_page_bytes(self) -> int:
        """Bytes available for tuples on one page."""
        return self.page_size - self.page_header

    def tuples_per_page(self, tuple_size: int) -> int:
        """Number of tuples of ``tuple_size`` bytes that fit on one page."""
        if tuple_size <= 0:
            raise ConfigError("tuple_size must be positive")
        capacity = self.usable_page_bytes // tuple_size
        if capacity < 1:
            raise ConfigError(
                f"tuple of {tuple_size} bytes does not fit in a "
                f"{self.usable_page_bytes}-byte page body"
            )
        return capacity


DEFAULT_CONFIG = EngineConfig()

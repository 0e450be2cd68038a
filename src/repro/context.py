"""Execution context: the one handle operators use to touch the substrate.

An :class:`ExecutionContext` binds the shared
:class:`~repro.runtime.EngineRuntime` (clock, disk, buffer pool — the
physical state every concurrent query contends on) to one query's
private :class:`~repro.runtime.CostLedger` (what *this* execution is
charged), so physical operators (and B+-tree scans) charge costs through
a single narrow interface.  Keeping it separate from both the storage
and executor packages breaks what would otherwise be an import cycle.

Operators themselves never see the ledger: they count events on the
shared clock and pull pages through the shared pool, and the runtime's
attribution windows (opened around every batch pull by
:class:`~repro.exec.stats.StreamingRun`) diff those counts into the
context's ledger.  Each ``charge_*`` counts ``n`` events of one kind of
:class:`~repro.config.CpuCosts` — an integer ``n``: a charge of ``n``
is the same as ``n`` charges of one, in any order.
"""

from __future__ import annotations

from repro.config import EngineConfig
from repro.runtime import CostLedger, EngineRuntime
from repro.storage.buffer import PagedFile
from repro.storage.disk import KINDS

_INSPECT = KINDS.index("tuple_inspect")
_EMIT = KINDS.index("tuple_emit")
_COMPARE = KINDS.index("compare")
_HASH = KINDS.index("hash_op")
_CACHE_PROBE = KINDS.index("cache_probe")
_CACHE_INSERT = KINDS.index("cache_insert")
_INDEX_ENTRY = KINDS.index("index_entry")
_EXCHANGE_ROW = KINDS.index("exchange_row")


class ExecutionContext:
    """Charging surface shared by all operators in one query execution."""

    def __init__(self, config: EngineConfig, runtime: EngineRuntime,
                 ledger: CostLedger | None = None):
        self.config = config
        self.runtime = runtime
        #: This query's private accounting (see EngineRuntime windows).
        self.ledger = ledger if ledger is not None else CostLedger()
        # Hot-path aliases: the runtime's clock/disk/buffer objects are
        # stable for its lifetime (cold starts reset them in place), so
        # operators keep attribute-level access without indirection.
        self.clock = runtime.clock
        self.disk = runtime.disk
        self.buffer = runtime.buffer

    # -- page access ------------------------------------------------------

    def get_page(self, file: PagedFile, page_id: int) -> None:
        """Request one page through the buffer pool."""
        self.buffer.get_page(file, page_id)

    def get_run(self, file: PagedFile, start_page: int,
                n_pages: int) -> range:
        """Request a run of pages through the buffer pool; its page ids."""
        return self.buffer.get_run(file, start_page, n_pages)

    # -- CPU charging -----------------------------------------------------

    def charge_inspect(self, n: int = 1) -> None:
        """Charge predicate evaluation on ``n`` tuples."""
        self.clock.counts[_INSPECT] += n

    def charge_emit(self, n: int = 1) -> None:
        """Charge emission of ``n`` tuples to the parent operator."""
        self.clock.counts[_EMIT] += n

    def charge_compare(self, n: int = 1) -> None:
        """Charge ``n`` sort comparisons."""
        self.clock.counts[_COMPARE] += n

    def charge_hash(self, n: int = 1) -> None:
        """Charge ``n`` hash operations."""
        self.clock.counts[_HASH] += n

    def charge_cache_probe(self, n: int = 1) -> None:
        """Charge ``n`` auxiliary-cache probes (Smooth Scan bookkeeping)."""
        self.clock.counts[_CACHE_PROBE] += n

    def charge_cache_insert(self, n: int = 1) -> None:
        """Charge ``n`` auxiliary-cache inserts (Smooth Scan bookkeeping)."""
        self.clock.counts[_CACHE_INSERT] += n

    def charge_index_entry(self, n: int = 1) -> None:
        """Charge advancing ``n`` entries along a B+-tree leaf chain."""
        self.clock.counts[_INDEX_ENTRY] += n

    def charge_exchange(self, n: int = 1) -> None:
        """Charge moving ``n`` rows through an exchange merge."""
        self.clock.counts[_EXCHANGE_ROW] += n

"""The self-hosted history store: telemetry events in engine tables.

A :class:`HistoryStore` owns a *dedicated warehouse database* — never
the measured one.  Appending telemetry rows to the database under
measurement would grow its heap files and shift the auto-sized buffer
pool, perturbing the very costs being recorded; the warehouse instead
runs with a small fixed buffer pool and its own simulated clock, whose
time is analysis time, not workload time.

Events arrive incrementally via :meth:`HistoryStore.ingest` (usually
of ``tracer.drain()``): raw events land in ``telemetry_events``, and every
closed query span (a ``query.start`` joined to its ``query.finish``,
enriched with the scheduler's client/label) flattens into one
``telemetry_queries`` row.  Both tables carry a ``bin`` column —
``floor(ts_ms / bin_ms)`` assigned at ingest — so time-binned rollups
(:mod:`~repro.telemetry.rollups`) are plain ``GROUP BY bin`` SQL.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.config import EngineConfig
from repro.telemetry.schema import (
    CLIENT_CHARS,
    DEFAULT_BIN_MS,
    EVENTS_TABLE,
    KIND_CHARS,
    LABEL_CHARS,
    QUERIES_TABLE,
    events_schema,
    queries_schema,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Connection
    from repro.database import Database
    from repro.telemetry.tracer import TraceEvent

#: Buffer pool of the warehouse database, in pages.  Fixed (not
#: auto-sized) so growing history never changes its own access costs.
WAREHOUSE_BUFFER_PAGES = 256


def warehouse_database() -> "Database":
    """A fresh, empty warehouse database with a fixed buffer pool."""
    from repro.database import Database
    return Database(EngineConfig(buffer_pool_pages=WAREHOUSE_BUFFER_PAGES))


class HistoryStore:
    """Telemetry warehouse: engine tables + incremental event sync."""

    def __init__(self, db: "Database | None" = None, *,
                 bin_ms: float = DEFAULT_BIN_MS):
        self.db = db if db is not None else warehouse_database()
        self.bin_ms = float(bin_ms)
        self._created = False
        #: Open spans per (run_id, query_id): query.start / sched.start
        #: context waiting for the matching query.finish.
        self._open: dict[tuple[int, int], dict] = {}

    # -- schema -------------------------------------------------------------

    def _ensure_tables(self) -> None:
        if self._created:
            return
        self.db.create_table(QUERIES_TABLE, queries_schema())
        self.db.create_table(EVENTS_TABLE, events_schema())
        # The drill-down join key: span rows and raw events by query id.
        self.db.create_index(QUERIES_TABLE, "query_id")
        self.db.create_index(EVENTS_TABLE, "query_id")
        self._created = True

    # -- ingest -------------------------------------------------------------

    def _bin(self, ts_ms: float) -> int:
        return int(ts_ms // self.bin_ms)

    def ingest(self, events: "Iterable[TraceEvent]", run_id: int = 0) -> int:
        """Append raw events and any query spans they close."""
        self._ensure_tables()
        event_rows: list[tuple] = []
        query_rows: list[tuple] = []
        for event in events:
            event_rows.append((
                run_id,
                event.seq,
                event.query_id,
                event.kind[:KIND_CHARS],
                event.ts_ms,
                event.value,
                self._bin(event.ts_ms),
            ))
            if event.query_id < 0:
                continue
            key = (run_id, event.query_id)
            if event.kind == "query.start":
                self._open[key] = {
                    "start_ms": event.ts_ms,
                    "cold": bool(event.attrs.get("cold", False)),
                    "client": event.attrs.get("client", ""),
                    "label": "",
                }
            elif event.kind == "sched.start":
                span = self._open.get(key)
                if span is not None:
                    span["client"] = event.attrs.get("client", span["client"])
                    span["label"] = event.attrs.get("label", "")
            elif event.kind == "query.finish":
                span = self._open.pop(key, None)
                if span is None:  # finish without a captured start
                    span = {"start_ms": event.ts_ms, "cold": False,
                            "client": "", "label": ""}
                attrs = event.attrs
                io_ms = attrs.get("io_ms", 0.0)
                cpu_ms = attrs.get("cpu_ms", 0.0)
                query_rows.append((
                    run_id,
                    event.query_id,
                    str(span["client"])[:CLIENT_CHARS],
                    str(span["label"])[:LABEL_CHARS],
                    int(span["cold"]),
                    int(bool(attrs.get("partial", False))),
                    int(attrs.get("rows", 0)),
                    io_ms,
                    cpu_ms,
                    io_ms + cpu_ms,
                    int(attrs.get("pages_read", 0)),
                    int(attrs.get("seq_pages", 0)),
                    int(attrs.get("rand_pages", 0)),
                    int(attrs.get("buffer_hits", 0)),
                    int(attrs.get("buffer_misses", 0)),
                    span["start_ms"],
                    event.ts_ms,
                    self._bin(event.ts_ms),
                ))
        if event_rows:
            self.db.append_rows(EVENTS_TABLE, event_rows)
        if query_rows:
            self.db.append_rows(QUERIES_TABLE, query_rows)
        return len(event_rows)

    # -- query --------------------------------------------------------------

    def connect(self, **kwargs) -> "Connection":
        """A SQL session on the warehouse (``cold=False`` by default).

        Warehouse queries are analysis, not measurement — warm reads by
        default so repeated rollups do not thrash its own caches.
        """
        self._ensure_tables()
        kwargs.setdefault("cold", False)
        return self.db.connect(**kwargs)

    @property
    def query_count(self) -> int:
        """Stored query spans (0 before any sync)."""
        if not self._created:
            return 0
        return self.db.table(QUERIES_TABLE).row_count

    @property
    def event_count(self) -> int:
        """Stored raw events (0 before any sync)."""
        if not self._created:
            return 0
        return self.db.table(EVENTS_TABLE).row_count

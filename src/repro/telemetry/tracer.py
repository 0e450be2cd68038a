"""The structured trace layer: cheap span/event emission on hot paths.

One :class:`Tracer` lives on every :class:`~repro.runtime.EngineRuntime`
(``db.tracer`` delegates to it), **disabled by default**.  Emission
sites live in the hot paths that already compute the data — the
streaming-run ledger close, Smooth Scan's morph decisions, the plan
cache, the cooperative scheduler, the serving front's admission — and
are guarded by one attribute read (``tracer.enabled``), so the traced
engine and the untraced engine run the *same* simulated schedule: the
tracer only ever reads the shared clock, never charges it.

Event kinds emitted by the engine:

======================  =================================================
``query.start``         a :class:`~repro.exec.stats.StreamingRun` began
                        (sql/params/options attached when the statement
                        went through the session layer)
``query.finish``        the run drained, closed or died — carries the
                        final per-query ledger (io/cpu ms, pages, buffer
                        hits/misses) and rows produced
``morph.start``         a Smooth Scan execution began (policy, trigger)
``morph.trigger``       the trigger fired: Mode 0 → smooth modes, with
                        the driving statistic (tuples produced so far)
``morph.flatten``       the morphing region first grew past one page
                        (Mode 1 → Mode 2), with the driving local and
                        global selectivities
``morph.finish``        scan done: pages fetched, produced, max region
``plan_cache.hit`` / ``.miss`` / ``.invalidation`` / ``.eviction``
``sched.grant``         the cooperative scheduler granted a client one
                        slice (``weight × quantum`` batches)
``sched.start`` / ``sched.finish``
                        a scheduled workload query began/drained (joins
                        client and label onto the query span)
``admission.admit`` / ``.split`` / ``.degrade`` / ``.reject`` /
``.dequeue``            the serving front's priced verdicts (``split``
                        carries the shard-parallel re-price that fit
                        the budget)
``shard.start`` / ``shard.finish``
                        one shard of an :class:`~repro.exec.exchange.
                        Exchange` began / drained — ``finish`` carries
                        the shard's conserved ledger slice (io/cpu ms,
                        pages read, rows produced)
======================  =================================================

Every event also feeds the tracer's
:class:`~repro.telemetry.metrics.MetricsRegistry`, so counters and
latency histograms are always consistent with the event stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import CostLedger
    from repro.storage.disk import SimClock


@dataclass
class TraceEvent:
    """One structured telemetry event, stamped on the simulated clock."""

    seq: int
    ts_ms: float
    kind: str
    #: The query span this event belongs to (-1: engine-level event).
    query_id: int = -1
    #: One scalar summarizing the event (rows, cost, wait — kind-specific).
    value: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Process-local event buffer + metrics, zero simulated cost.

    Disabled (the default) every emission site reduces to one boolean
    attribute check; enabled, events append to an in-memory buffer that
    :meth:`drain` hands to consumers (the history store, the capture
    harness).  Nothing here advances the clock or touches the disk or
    buffer pool — tracing on vs off is *simulated-cost invisible* by
    construction, which the telemetry benchmark pins.
    """

    def __init__(self, clock: "SimClock"):
        self._clock = clock
        self.enabled = False
        self.events: list[TraceEvent] = []
        self.metrics = MetricsRegistry()
        self._seq = 0
        self._next_query = 0
        #: The span whose batches are currently being pulled (set by
        #: StreamingRun.pull); lets operators deep in the tree —
        #: Smooth Scan's morph events — attribute to the right query.
        self.current_query_id = -1
        #: Statement context noted by the session layer, consumed by the
        #: next ``begin_query`` (the StreamingRun the statement starts).
        self._pending_statement: dict | None = None
        self._pending_client: str | None = None

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        """Start buffering events (and counting metrics)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop emission; buffered events stay until drained."""
        self.enabled = False
        self._pending_statement = None
        self._pending_client = None
        self.current_query_id = -1

    def drain(self) -> list[TraceEvent]:
        """Take (and clear) the buffered events — incremental sync."""
        events, self.events = self.events, []
        return events

    # -- emission ----------------------------------------------------------

    def emit(self, kind: str, query_id: int = -1, value: float = 0.0,
             **attrs) -> None:
        """Record one event (no-op while disabled)."""
        if not self.enabled:
            return
        event = TraceEvent(
            seq=self._seq,
            ts_ms=self._clock.total_ms,
            kind=kind,
            query_id=query_id,
            value=value,
            attrs=attrs,
        )
        self._seq += 1
        self.events.append(event)
        self.metrics.observe_event(event)

    # -- query spans -------------------------------------------------------

    def note_statement(self, sql: str, params: object,
                       options: dict | None, cold: bool) -> None:
        """Session-layer context for the run about to start.

        Called by :meth:`~repro.api.session.Cursor.execute` and
        :meth:`~repro.api.session.Connection.run` right before they
        build the :class:`~repro.exec.stats.StreamingRun`; the next
        :meth:`begin_query` attaches it to the ``query.start`` event —
        which is what makes captured traces replayable.
        """
        if not self.enabled:
            return
        self._pending_statement = {
            "sql": sql, "params": params, "options": options, "cold": cold,
        }

    def note_client(self, client: str) -> None:
        """Attribute the next query span to ``client`` (serving front)."""
        if self.enabled:
            self._pending_client = client

    def begin_query(self, cold: bool) -> int:
        """Open a query span; returns its id (-1 while disabled)."""
        if not self.enabled:
            return -1
        qid = self._next_query
        self._next_query += 1
        attrs: dict = {"cold": cold}
        pending, self._pending_statement = self._pending_statement, None
        client, self._pending_client = self._pending_client, None
        if pending is not None:
            attrs.update(pending)
        if client is not None:
            attrs["client"] = client
        self.emit("query.start", query_id=qid, **attrs)
        return qid

    def finish_query(self, query_id: int, rows: int, partial: bool,
                     ledger: "CostLedger", error: str | None = None) -> None:
        """Close a query span with its final per-query ledger."""
        if not self.enabled or query_id < 0:
            return
        attrs = {
            "rows": rows,
            "partial": partial,
            "io_ms": ledger.io_ms,
            "cpu_ms": ledger.cpu_ms,
            "pages_read": ledger.disk.pages_read,
            "seq_pages": ledger.disk.seq_pages,
            "rand_pages": ledger.disk.rand_pages,
            "buffer_hits": ledger.buffer_hits,
            "buffer_misses": ledger.buffer_misses,
            "ledger": ledger.summary(),
        }
        if error is not None:
            attrs["error"] = error
        self.emit("query.finish", query_id=query_id, value=float(rows),
                  **attrs)

    # -- engine hooks ------------------------------------------------------

    def plan_cache_event(self, kind: str) -> None:
        """The :class:`~repro.optimizer.plan_cache.PlanCache` hook."""
        if self.enabled:
            self.emit(f"plan_cache.{kind}")

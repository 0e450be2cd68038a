"""Per-run measurement: what one executed query cost.

A :class:`RunResult` packages everything the paper reports about a single
query execution: rows produced, simulated execution time split into CPU and
blocking I/O wait (Figure 4's bar segments), and the I/O request / volume
accounting of Table II.  Measurement is ledger-based: every
:class:`StreamingRun` owns a private :class:`~repro.runtime.CostLedger`
and wraps each pull in a runtime attribution window, so any number of
interleaved runs on one database report correct isolated costs.
:func:`measure` wraps an operator execution in a streaming run drained to
completion.

Ledgers are also *published*: when tracing is enabled every run opens a
query span and closes it with its final ledger, so consumers that want
per-query costs after the fact should read them from the telemetry
history store (:mod:`repro.telemetry.store` — queryable via SQL,
rollups in :mod:`repro.telemetry.rollups`) instead of holding on to
``RunResult`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.database import Database
from repro.exec.iterator import Chunk, Operator
from repro.runtime import CostLedger
from repro.storage.disk import DiskStats
from repro.storage.types import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.params import ParamBox


@dataclass
class RunResult:
    """Everything measured about one query execution: its rows and its
    :class:`~repro.runtime.CostLedger`."""

    rows: list[Row]
    ledger: CostLedger
    extras: dict = field(default_factory=dict)

    @property
    def io_ms(self) -> float:
        """Simulated blocking I/O wait in milliseconds."""
        return self.ledger.io_ms

    @property
    def cpu_ms(self) -> float:
        """Simulated CPU time in milliseconds."""
        return self.ledger.cpu_ms

    @property
    def disk(self) -> DiskStats:
        """Table II's I/O accounting."""
        return self.ledger.disk

    @property
    def buffer_hits(self) -> int:
        """Pages served from the buffer pool."""
        return self.ledger.buffer_hits

    @property
    def buffer_misses(self) -> int:
        """Pages the buffer pool had to read."""
        return self.ledger.buffer_misses

    @property
    def total_ms(self) -> float:
        """Total simulated execution time in milliseconds."""
        return self.ledger.total_ms

    @property
    def total_seconds(self) -> float:
        """Total simulated execution time in seconds."""
        return self.total_ms / 1000.0

    @property
    def row_count(self) -> int:
        """Number of rows the query produced (works with keep_rows=False)."""
        if "row_count" in self.extras:
            return self.extras["row_count"]
        return len(self.rows)

    @property
    def read_gb(self) -> float:
        """Data transferred from disk, in GB (Table II's second row)."""
        return self.disk.bytes_read / 1e9

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunResult(rows={self.row_count}, time={self.total_seconds:.3f}s "
            f"[io={self.io_ms / 1000:.3f}s cpu={self.cpu_ms / 1000:.3f}s], "
            f"io_requests={self.disk.requests}, read={self.read_gb:.3f}GB)"
        )


def measure(db: Database, plan: Operator, cold: bool = True,
            keep_rows: bool = True) -> RunResult:
    """Execute ``plan`` on ``db`` and measure it.

    With ``cold=True`` (the paper's methodology) all caches are dropped
    first.  With ``keep_rows=False`` output rows are counted but discarded,
    for large sweeps where materialization would dominate Python time.

    Execution drains the plan's ``batches()``.  In plans with several
    I/O-bearing operators, batch draining clusters each subtree's page
    accesses, which the simulated disk head and buffer LRU reward with
    better locality (as real hardware would) — measured baselines
    reflect batch-execution I/O patterns.
    """
    # One bookkeeping implementation: a StreamingRun drained in place.
    # Ledger attribution lives only there, so one-shot and streaming
    # executions can never diverge in what they measure.
    run = StreamingRun(db, plan, cold=cold)
    batches = run.pull()
    rows = Chunk.concat(batches).to_rows()[:] if keep_rows and batches \
        else None
    return run.result(rows)


class StreamingRun:
    """Incremental execution of one plan: pull batches, measure any time.

    The engine of :class:`~repro.api.session.Cursor` streaming: where
    :func:`measure` drains a plan to completion in one call,
    ``StreamingRun`` hands out operator batches as they are asked for —
    :meth:`pull` advances the plan until its batches hold a number of
    rows (a cursor fetch's worth; no full materialization), and
    :meth:`next_batch` is ``pull(1)`` for drivers that interleave runs a
    batch at a time — and can report the simulated cost of the run *so
    far* at any point.  Charges are identical to :func:`measure`'s —
    both drive the same ``batches()`` protocol — so a fully-drained
    streaming run is measurement-identical to a one-shot one, however
    its pulls were sized.

    Costs are accounted in a private :class:`~repro.runtime.CostLedger`:
    every pull opens one attribution window on the shared runtime, so
    any number of runs may interleave on one database — they contend on
    the shared disk head and buffer pool (as concurrent queries should)
    while each ledger records only its own query's charges.  Starting a
    *cold* run (``cold=True`` here, ``Database.cold_run()``,
    ``execute(cold=True)``) while another run is live raises
    :class:`~repro.errors.ExecutionError` instead of silently resetting
    the caches under the draining cursor.

    ``params`` is ``(box, values)`` when the plan's computed values read a
    prepared statement's parameter slots: every pull refills the box
    first, so live runs of one statement each compute with their own
    values, whatever order they are pulled in.
    """

    def __init__(self, db: Database, plan: Operator, cold: bool = True,
                 params: tuple[ParamBox, Sequence[object]] | None = None):
        self.db = db
        self.plan = plan
        self._params = params
        # cold_run() resets the substrate (and raises if any *other*
        # run is live) before this run registers itself below.
        ctx = db.cold_run() if cold else db.context()
        self.ledger: CostLedger = ctx.ledger
        self._runtime = db.runtime
        self._batches = plan.batches(ctx)
        self.rows_produced = 0
        self.exhausted = False
        self.closed = False
        self._runtime.register_stream(self)
        # Open the telemetry query span (-1 while tracing is off); any
        # statement context the session layer noted attaches here.
        # repro: allow[RPL103] -- cross-method span: _finish_span() closes
        # it from pull()/close(), whichever ends the run
        self._query_id = self._runtime.tracer.begin_query(cold)
        self._span_closed = False

    @property
    def query_id(self) -> int:
        """The telemetry span id of this run (-1 while tracing is off)."""
        return self._query_id

    def _finish_span(self, partial: bool, error: str | None = None) -> None:
        if self._query_id >= 0 and not self._span_closed:
            self._span_closed = True
            self._runtime.tracer.finish_query(
                self._query_id, self.rows_produced, partial, self.ledger,
                error=error,
            )

    def pull(self, rows: int | None = None) -> list[Chunk]:
        """The next batches, until they hold at least ``rows`` rows (all
        that are left when ``None``); fewer only once the plan is done,
        and ``[]`` after that.

        Every generator advance of one pull runs inside one attribution
        window: charges are counts, so a window around many batches
        folds exactly what one window per batch would.  A plan that
        raises mid-pull closes the run, with ``rows_produced`` counting
        the batches pulled before the error.
        """
        if self.closed or self.exhausted:
            return []
        if self._params is not None:
            box, values = self._params
            box.values = values
        tracer = self._runtime.tracer
        if tracer.enabled:
            # Operators emitting mid-pull (morph events) attribute here.
            tracer.current_query_id = self._query_id
        batches: list[Chunk] = []
        need = rows
        try:
            self._runtime.begin_attribution(self.ledger)
            try:
                for batch in self._batches:
                    batches.append(batch)
                    self.rows_produced += len(batch)
                    if need is not None:
                        need -= len(batch)
                        if need <= 0:
                            break
                else:
                    self.exhausted = True
            finally:
                self._runtime.end_attribution()
        except BaseException as exc:
            # The plan died: the run can never be drained, so drop it
            # from the live registry (a later cold start must not be
            # blocked by a corpse).
            self._runtime.unregister_stream(self)
            self.closed = True
            self._finish_span(partial=True, error=type(exc).__name__)
            raise
        if self.exhausted:
            self._runtime.unregister_stream(self)
            self._finish_span(partial=False)
        return batches

    def next_batch(self) -> Chunk | None:
        """The next (non-empty) batch, or ``None`` once the plan is
        done: ``pull(1)``, for drivers that interleave runs a batch at
        a time."""
        batches = self.pull(1)
        return batches[0] if batches else None

    def result(self, rows: list[Row] | None = None) -> RunResult:
        """The measurement up to now (partial unless ``exhausted``).

        ``rows`` lets a caller that kept the fetched rows attach them;
        ``row_count`` always reports rows *produced*, kept or not, and
        ``extras["partial"]`` records whether the plan was cut short.
        Reads this run's private ledger, so interleaved queries on the
        same database never fold into each other's measurements.
        """
        run = RunResult(rows=rows if rows is not None else [],
                        ledger=self.ledger.snapshot())
        run.extras["row_count"] = self.rows_produced
        run.extras["partial"] = not self.exhausted
        return run

    def close(self) -> None:
        """Abandon the run; further pulls return nothing.

        Generator cleanup (operator ``finally`` blocks) is attributed
        to this run's ledger, like every other charge it caused.
        """
        if not self.closed:
            close = getattr(self._batches, "close", None)
            if close is not None:
                self._runtime.begin_attribution(self.ledger)
                try:
                    close()
                finally:
                    self._runtime.end_attribution()
            self.closed = True
            self._runtime.unregister_stream(self)
            self._finish_span(partial=not self.exhausted)


MeasureFn = Callable[[Database, Operator], RunResult]

"""Deterministic cooperative scheduling of concurrent queries.

The serving scenario the ROADMAP aims at — many clients on one engine —
needs queries that *contend*: one client's random index probes seek the
shared disk head away from another's sequential run, and buffer
evictions land on whoever happens to be resident.  The shared
:class:`~repro.runtime.EngineRuntime` models exactly that, and
per-query :class:`~repro.runtime.CostLedger`\\ s keep each query's
measurement isolated; what remains is *interleaving*.

:class:`CooperativeScheduler` interleaves batch-draining across N live
streams, fully deterministically — no threads, no wall clock, no
randomness.  Clients are visited round-robin in admission order; each
visit pulls ``weight × quantum`` operator batches from the client's
current query (priority-weighted scheduling is just ``weight > 1``).
Simulated time is the shared clock: a query's *latency* is the span of
shared-clock time from the moment its client started it to the moment
it drained — so a query that keeps being scheduled away from, or whose
pages keep being evicted, honestly shows the wait.

Clients are closed-loop: each replays its queue of queries
back-to-back, starting the next one the first time it is scheduled
after the previous finished.  A query is anything that produces a
:class:`~repro.exec.stats.StreamingRun` when started — a plan wrapped
by the caller, or a session-layer :class:`~repro.api.session.Cursor`
(the scheduler unwraps its ``stream``), so prepared statements and the
plan cache compose with scheduling::

    sched = CooperativeScheduler(db)
    for i, stream in enumerate(param_streams):
        client = WorkloadClient(f"c{i + 1}")
        for params in stream:
            client.add_query(str(params), lambda p=params: st.execute(p))
        sched.add_client(client)
    report = sched.run(cold=True)
    print(report.p99_ms, report.throughput_qps)

``run(interleave=False)`` replays the same clients one after another —
the uncontended baseline a contended run is compared against.

A client is anything with a ``name``, a ``weight``, ``queries_left`` and
``step(scheduler)`` (one batch, or one request, per call; False once
drained).  The serving benchmark's protocol clients
(:class:`~repro.server.inprocess.ScriptedClient`, one wire request per
visit) are stepped by this same loop, so the concurrency and serving
experiments interleave their clients identically.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ExecutionError
from repro.runtime import CostLedger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.database import Database
    from repro.exec.stats import StreamingRun


def nearest_rank_ms(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile — deterministic, no interpolation.

    The one percentile definition every latency report in the repo
    uses (workload reports, admission queue waits): sort, take the
    value at rank ``ceil(pct/100 × n)``, clamped to ``[1, n]``.  An
    empty sample reports 0.0; a single sample is every percentile of
    itself.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered),
                      math.ceil(pct / 100.0 * len(ordered))))
    return ordered[rank - 1]


@dataclass
class QueryRecord:
    """One finished query of a scheduled workload."""

    client: str
    label: str
    rows: int
    #: Shared-clock time when the client started this query.
    start_ms: float
    #: Shared-clock time when the last batch drained.
    finish_ms: float
    #: The query's own charges (isolated from interleaved queries).
    ledger: CostLedger

    @property
    def latency_ms(self) -> float:
        """Response time on the shared clock, queueing included."""
        return self.finish_ms - self.start_ms


@dataclass
class WorkloadReport:
    """Everything measured about one scheduled workload run."""

    records: list[QueryRecord]
    started_ms: float
    finished_ms: float

    @property
    def makespan_ms(self) -> float:
        """Shared-clock span from admission to the last query draining."""
        return self.finished_ms - self.started_ms

    def latencies_ms(self) -> list[float]:
        """Per-query latencies, in completion order."""
        return [r.latency_ms for r in self.records]

    def percentile_ms(self, pct: float) -> float:
        """Nearest-rank percentile of per-query latency (deterministic)."""
        return nearest_rank_ms(self.latencies_ms(), pct)

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(50)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(99)

    @property
    def mean_ms(self) -> float:
        lats = self.latencies_ms()
        return sum(lats) / len(lats) if lats else 0.0

    @property
    def rows(self) -> int:
        """Total rows produced across every query."""
        return sum(r.rows for r in self.records)

    @property
    def throughput_qps(self) -> float:
        """Queries completed per simulated second."""
        if self.makespan_ms <= 0:
            return 0.0
        return len(self.records) / (self.makespan_ms / 1000.0)

    def total_ledger(self) -> CostLedger:
        """Sum of every query's ledger (conservation checks)."""
        total = CostLedger()
        for record in self.records:
            total.add(record.ledger)
        return total

    def for_client(self, name: str) -> list[QueryRecord]:
        """This client's records, in its completion order."""
        return [r for r in self.records if r.client == name]

    def summary_dict(self) -> dict:
        """The workload-report summary as one flat JSON-ready dict.

        The shared schema (``workload-report/v1``) every bench artifact
        embeds — the concurrency experiment and the serving harness
        emit the same keys, so downstream tooling parses one shape.
        """
        return {
            "schema": "workload-report/v1",
            "queries": len(self.records),
            "rows": self.rows,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "makespan_ms": self.makespan_ms,
            "throughput_qps": self.throughput_qps,
        }

    def to_json(self, detail: bool = False) -> str:
        """A deterministic one-line JSON string of this report.

        The default is :meth:`summary_dict` — the exact byte shape the
        committed bench artifacts embed.  ``detail=True`` serializes
        :meth:`detail_dict` instead: every record with its full ledger,
        loadable back via :meth:`from_detail_dict`.
        """
        payload = self.detail_dict() if detail else self.summary_dict()
        return json.dumps(payload, sort_keys=True)

    def detail_dict(self) -> dict:
        """The round-trippable shape: every record, ledgers included.

        Percentiles and throughput are deliberately *not* stored — a
        loaded report recomputes them from the records, so the summary
        can never drift from the detail it claims to summarize.
        """
        return {
            "schema": "workload-report-detail/v1",
            "started_ms": self.started_ms,
            "finished_ms": self.finished_ms,
            "records": [
                {
                    "client": r.client,
                    "label": r.label,
                    "rows": r.rows,
                    "start_ms": r.start_ms,
                    "finish_ms": r.finish_ms,
                    "ledger": r.ledger.to_dict(),
                }
                for r in self.records
            ],
        }

    @classmethod
    def from_detail_dict(cls, data: dict) -> "WorkloadReport":
        """Rebuild a report serialized by :meth:`detail_dict`."""
        schema = data.get("schema")
        if schema != "workload-report-detail/v1":
            raise ExecutionError(
                f"unsupported workload-report schema {schema!r}"
            )
        return cls(
            records=[
                QueryRecord(
                    client=r["client"],
                    label=r["label"],
                    rows=r["rows"],
                    start_ms=r["start_ms"],
                    finish_ms=r["finish_ms"],
                    ledger=CostLedger.from_dict(r["ledger"]),
                )
                for r in data["records"]
            ],
            started_ms=data["started_ms"],
            finished_ms=data["finished_ms"],
        )


#: Starts one query: returns a StreamingRun, or any object (a Cursor)
#: exposing the run as a ``stream`` attribute.
QueryFactory = Callable[[], object]


class WorkloadClient:
    """A closed-loop client: a queue of queries replayed back-to-back.

    ``weight`` buys scheduling priority: a weight-``w`` client drains
    ``w`` quanta per round-robin visit, so heavier clients finish
    sooner on the same shared substrate.
    """

    def __init__(self, name: str, weight: int = 1):
        if weight < 1:
            raise ValueError("client weight must be >= 1")
        self.name = name
        self.weight = weight
        self._pending: deque[tuple[str, QueryFactory]] = deque()
        self._current: "StreamingRun | None" = None
        self._label = ""
        self._start_ms = 0.0

    def add_query(self, label: str, start: QueryFactory) -> "WorkloadClient":
        """Queue one query; ``start`` is called when it gets scheduled.

        Deferred start keeps arrival semantics honest (a query's clock
        starts when its client reaches it, not at workload build time)
        and lets the factory go through the session layer — e.g.
        ``lambda: statement.execute(params)`` — so cached-plan replay
        happens inside the measured run of the workload.
        """
        self._pending.append((label, start))
        return self

    @property
    def queries_left(self) -> int:
        """Queued queries not yet finished (the live one included)."""
        return len(self._pending) + (1 if self._current is not None else 0)

    def step(self, scheduler: "CooperativeScheduler") -> bool:
        """Advance by one batch; False when this client is done."""
        run = self._current
        if run is None:
            if not self._pending:
                return False
            self._label, start = self._pending.popleft()
            self._start_ms = scheduler.runtime.clock.total_ms
            handle = start()
            run = getattr(handle, "stream", handle)
            if run is None or not hasattr(run, "next_batch"):
                raise ExecutionError(
                    f"client {self.name!r}: query {self._label!r} did "
                    "not produce a streaming run (EXPLAIN statements "
                    "cannot be scheduled)"
                )
            self._current = run
            # Join scheduling identity onto the query span the start()
            # factory just opened (capture/replay keys off this).
            scheduler.runtime.tracer.emit(
                "sched.start", query_id=getattr(run, "query_id", -1),
                value=self._start_ms, client=self.name, label=self._label,
                weight=self.weight,
            )
        if run.next_batch() is None:
            finish_ms = scheduler.runtime.clock.total_ms
            scheduler.records.append(QueryRecord(
                client=self.name,
                label=self._label,
                rows=run.rows_produced,
                start_ms=self._start_ms,
                finish_ms=finish_ms,
                ledger=run.ledger,
            ))
            scheduler.runtime.tracer.emit(
                "sched.finish", query_id=getattr(run, "query_id", -1),
                value=finish_ms - self._start_ms, client=self.name,
                label=self._label, rows=run.rows_produced,
            )
            self._current = None
        return True


class CooperativeScheduler:
    """Round-robin (and priority-weighted) interleaver of N clients.

    One scheduler drives one database's shared runtime.  ``quantum``
    is the number of operator batches one visit drains per unit of
    client weight — the granularity of interleaving, and therefore of
    contention on the shared disk head and buffer pool.
    """

    def __init__(self, db: "Database", quantum: int = 1):
        if quantum < 1:
            raise ValueError("scheduler quantum must be >= 1 batch")
        self.db = db
        self.runtime = db.runtime
        self.quantum = quantum
        self._clients: list[WorkloadClient] = []
        #: This run's finished queries, in completion order.
        self.records: list[QueryRecord] = []

    def add_client(self, client: WorkloadClient) -> WorkloadClient:
        """Admit a client; round-robin order is admission order.

        The weight is validated *here*, not just at construction: a
        weight mutated to zero or negative after ``__init__`` would
        make every scheduling visit grant ``weight × quantum = 0``
        batches — the client never progresses and :meth:`run` spins
        forever on its undrained queue.
        """
        if client.weight < 1:
            raise ExecutionError(
                f"client {client.name!r} has non-positive weight "
                f"{client.weight}; a zero-batch slice would never "
                "drain its queue"
            )
        self._clients.append(client)
        return client

    def client(self, name: str, weight: int = 1) -> WorkloadClient:
        """Create *and* admit a client in one call."""
        return self.add_client(WorkloadClient(name, weight))

    def run(self, cold: bool = False,
            interleave: bool = True) -> WorkloadReport:
        """Drain every client's queue; returns the workload report.

        ``cold=True`` resets the shared substrate once, up front (the
        whole workload then runs against one cold engine — individual
        queries are warm-start, as concurrent traffic is).
        ``interleave=False`` runs clients to completion one after
        another in admission order: the serial baseline, same total
        work, no contention.

        Clients' queues are *consumed* by a run: comparing schedules
        (say serial vs contended) means building a fresh scheduler per
        run, so re-running one whose clients are already drained
        raises instead of silently measuring an empty workload.
        """
        if self._clients and not any(c.queries_left for c in self._clients):
            raise ExecutionError(
                "every client's queue is already drained; build a fresh "
                "schedule to run the workload again"
            )
        if cold:
            self.runtime.cold_start()
        self.records = []
        started_ms = self.runtime.clock.total_ms
        tracer = self.runtime.tracer
        if interleave:
            live = list(self._clients)
            while live:
                still: list[WorkloadClient] = []
                for client in live:
                    tracer.emit("sched.grant", client=client.name,
                                batches=client.weight * self.quantum)
                    alive = True
                    for _ in range(client.weight * self.quantum):
                        alive = client.step(self)
                        if not alive:
                            break
                    if alive:
                        still.append(client)
                live = still
        else:
            for client in self._clients:
                tracer.emit("sched.grant", client=client.name,
                            batches=client.weight * self.quantum)
                while client.step(self):
                    pass
        return WorkloadReport(
            records=self.records,
            started_ms=started_ms,
            finished_ms=self.runtime.clock.total_ms,
        )

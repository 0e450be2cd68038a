"""Telemetry workload — the concurrency drill traced end to end.

The 4-client drifted-replay mix of :mod:`repro.experiments.concurrency`
runs again (classic and smooth serving), this time with the tracer on,
and the full observability pipeline is exercised and *verified* against
the ground truth the engine already computes:

* every trace event lands in the :class:`~repro.telemetry.store.\
HistoryStore` — engine tables queried through the repo's own SQL front
  end — and the SQL rollups must agree **exactly** with the in-memory
  :class:`~repro.exec.scheduler.WorkloadReport` aggregates;
* the event stream is joined into a ``workload-trace/v1`` file
  (:mod:`repro.telemetry.capture`) and replayed on a fresh database
  (:mod:`repro.telemetry.replay`) — every per-query ledger must be
  reproduced bitwise (integer counters equal, milliseconds within
  1e-9);
* the identical workload runs once more on a fresh *untraced* engine,
  and the detailed workload reports must be **byte-identical** — the
  proof that tracing charges zero simulated cost.

Artifacts: ``bench_results/telemetry_workload.txt`` (the report below,
including the deterministic metrics exposition) and
``bench_results/telemetry_trace.json`` (the captured trace — replayable
standalone with ``python -m repro.telemetry.replay``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.reporting import format_table
from repro.database import Database
from repro.exec.scheduler import WorkloadReport
from repro.experiments.common import MicroSetup, make_micro_db
from repro.experiments.concurrency import (
    CLASSIC_OPTIONS,
    CONCURRENCY_SQL,
    DEFAULT_CLIENTS,
    DEFAULT_CONCURRENCY_TUPLES,
    MIX_PCT,
    SEED_PCT,
    SMOOTH_OPTIONS,
    build_schedule,
)
from repro.optimizer.planner import PlannerOptions
from repro.telemetry import (
    CapturedRun,
    HistoryStore,
    ReplayResult,
    WorkloadTrace,
    capture_run,
    replay_trace,
)
from repro.telemetry.rollups import by_client, verify_against_report
from repro.workloads.micro import VALUE_DOMAIN

#: History-store run ids, one per traced series.
RUN_IDS = {"classic": 0, "smooth": 1}

#: Seed (cache-warming) spans are stored under ``run_id + this`` so the
#: per-run rollups compare against exactly the scheduled queries.
SEED_RUN_OFFSET = 100


@dataclass
class SeriesTelemetry:
    """One traced series: its report, its warehouse run, its capture."""

    name: str
    run_id: int
    report: WorkloadReport
    captured: CapturedRun
    events_ingested: int
    conservation_ok: bool
    #: Mismatches between SQL rollups and the report (empty = exact).
    rollup_problems: list[str]
    #: Per-client SQL rollup rows (recovered from the warehouse).
    client_rollup: list[dict]


@dataclass
class TelemetryResult:
    """The full telemetry drill and its three verification verdicts."""

    num_tuples: int
    num_clients: int
    store: HistoryStore
    trace: WorkloadTrace
    series: list[SeriesTelemetry]
    replay: ReplayResult
    #: True when traced and untraced detailed reports are byte-identical.
    overhead_identical: bool
    metrics_text: str

    @property
    def conservation_ok(self) -> bool:
        return all(s.conservation_ok for s in self.series)

    def report(self) -> str:
        headers = ["series", "queries", "rows", "p50_s", "p99_s",
                   "mean_s", "makespan_s", "qps", "events", "spans"]
        table = []
        for s in self.series:
            rep = s.report
            table.append([
                s.name, len(rep.records), rep.rows,
                rep.p50_ms / 1000, rep.p99_ms / 1000,
                rep.mean_ms / 1000, rep.makespan_ms / 1000,
                rep.throughput_qps, s.events_ingested,
                s.captured.statement_count,
            ])
        lines = [format_table(
            headers, table,
            title=(f"Telemetry workload — {self.num_clients} clients x "
                   f"{len(MIX_PCT)} queries, traced end to end\n"
                   f"(statement: {CONCURRENCY_SQL}; plan cached at "
                   f"{SEED_PCT}% selectivity, replayed across the drift "
                   "mix; simulated times)"),
        )]
        lines.append(
            f"history store: {self.store.event_count} events, "
            f"{self.store.query_count} query spans in engine tables "
            "(B-tree indexed on query_id), queried via SQL"
        )
        for s in self.series:
            verdict = ("exact" if not s.rollup_problems
                       else "MISMATCH: " + "; ".join(s.rollup_problems))
            lines.append(f"rollup == report: {verdict} ({s.name})")
        for s in self.series:
            per_client = ", ".join(
                f"{row['client']}={row['queries']}q/{row['rows_out']}rows"
                for row in s.client_rollup
            )
            lines.append(f"per-client SQL rollup ({s.name}): {per_client}")
        lines.append(
            "ledger conservation: "
            + ("exact (per-query ledgers sum to the shared runtime totals)"
               if self.conservation_ok else "VIOLATED")
        )
        if self.replay.ok:
            lines.append(
                f"replay equivalence: exact ({self.replay.statements} "
                "statements re-run from the trace file, every per-query "
                "ledger reproduced)"
            )
        else:
            lines.append(f"replay equivalence: {self.replay.describe()}")
        lines.append(
            "tracing overhead: "
            + ("zero simulated cost (traced and untraced detailed "
               "workload reports are byte-identical)"
               if self.overhead_identical else "NONZERO — reports differ")
        )
        lines.append("metrics exposition:")
        lines.append(self.metrics_text)
        for s in self.series:
            lines.append(f"json {s.name}: {s.report.to_json()}")
        return "\n".join(lines)


def _run_series(db: Database, name: str, options: PlannerOptions,
                num_clients: int) -> tuple[WorkloadReport, bool]:
    """The concurrency drill's contended run (seed, then the mix)."""
    conn = db.connect(options=options, cold=False)
    statement = conn.prepare(CONCURRENCY_SQL)
    seed_hi = round(SEED_PCT / 100.0 * VALUE_DOMAIN)
    statement.run({"lo": 0, "hi": seed_hi}, cold=True, keep_rows=False)
    report = build_schedule(db, statement, num_clients).run(
        cold=True, interleave=True)
    conserved = report.total_ledger() == db.runtime.totals()
    return report, conserved


def _ingest_series(store: HistoryStore, events: list, run_id: int) -> int:
    """Warehouse one series: scheduled spans under ``run_id``, seed
    (cache-warming) spans under ``run_id + SEED_RUN_OFFSET``.

    The split keeps ``rollups.totals(run_id)`` comparable to the
    scheduler's report, which only aggregates scheduled queries.
    """
    sched_ids = {e.query_id for e in events if e.kind == "sched.start"}
    seed_events = [e for e in events
                   if e.query_id >= 0 and e.query_id not in sched_ids]
    main_events = [e for e in events
                   if e.query_id < 0 or e.query_id in sched_ids]
    store.ingest(seed_events, run_id=run_id + SEED_RUN_OFFSET)
    return store.ingest(main_events, run_id=run_id)


def run_telemetry_workload(
    num_tuples: int = DEFAULT_CONCURRENCY_TUPLES,
    num_clients: int = DEFAULT_CLIENTS,
    setup: MicroSetup | None = None,
) -> TelemetryResult:
    """Run the traced concurrency drill and verify the whole pipeline.

    Builds its own database by default (tracing and plan caching are
    too intrusive for a shared fixture); a ``setup`` passed in must be
    fresh for the overhead comparison to be meaningful.
    """
    setup = setup or make_micro_db(num_tuples)
    db = setup.db
    db.analyze()
    db.tracer.enable()
    store = HistoryStore()
    trace = WorkloadTrace(setup={
        "workload": "micro",
        "num_tuples": num_tuples,
        "seed": 42,
        "analyze": True,
    })
    series: list[SeriesTelemetry] = []
    configs = (("classic", CLASSIC_OPTIONS), ("smooth", SMOOTH_OPTIONS))
    for name, options in configs:
        db.tracer.drain()  # each series captures only its own events
        report, conserved = _run_series(db, name, options, num_clients)
        events = db.tracer.drain()
        captured = capture_run(events, label=name, interleave=True,
                               quantum=1, cold=True)
        trace.add_run(captured)
        run_id = RUN_IDS[name]
        ingested = _ingest_series(store, events, run_id)
        series.append(SeriesTelemetry(
            name=name,
            run_id=run_id,
            report=report,
            captured=captured,
            events_ingested=ingested,
            conservation_ok=conserved,
            rollup_problems=verify_against_report(store, report,
                                                  run_id=run_id),
            client_rollup=by_client(store, run_id=run_id),
        ))
    metrics_text = db.tracer.metrics.exposition()
    db.tracer.disable()

    # Replay the captured trace on a fresh database: every per-query
    # ledger must come back bitwise.
    replay = replay_trace(trace)

    # Overhead proof: the identical workload on a fresh *untraced*
    # engine must produce byte-identical detailed reports (ledgers,
    # start/finish stamps on the simulated clock — everything).
    untraced = make_micro_db(num_tuples)
    untraced.db.analyze()
    overhead_identical = True
    for (name, options), traced in zip(configs, series, strict=False):
        report, _ = _run_series(untraced.db, name, options, num_clients)
        overhead_identical &= (
            report.to_json(detail=True)
            == traced.report.to_json(detail=True)
        )

    return TelemetryResult(
        num_tuples=num_tuples,
        num_clients=num_clients,
        store=store,
        trace=trace,
        series=series,
        replay=replay,
        overhead_identical=overhead_identical,
        metrics_text=metrics_text,
    )

"""Replay: re-run a captured trace and assert ledger equivalence.

``python -m repro.telemetry.replay trace.json`` rebuilds the database
from the trace's setup recipe, replays every captured run through the
real session layer (plan cache included) and the real
:class:`~repro.exec.scheduler.CooperativeScheduler`, and compares each
statement's outcome against the recording: rows must be equal, and so
must the ledger's summary — its integer counters (pages, requests,
buffer hits/misses) and its milliseconds, which are derived from
integer event counts and so are reproduced to the bit.

The engine is deterministic — simulated clock, simulated disk, no
threads — so a faithful replay reproduces the original interleaving
*exactly*, which is what turns any captured workload into a regression
suite: a code change that shifts any per-query ledger fails the replay.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.telemetry.capture import (
    CapturedRun,
    CapturedStatement,
    WorkloadTrace,
    options_from_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.database import Database
    from repro.exec.scheduler import WorkloadReport
    from repro.runtime import CostLedger


def build_database(setup: dict) -> "Database":
    """Rebuild the database a trace was captured against."""
    from repro.database import Database
    from repro.workloads.micro import build_micro_table
    workload = setup.get("workload")
    if workload != "micro":
        raise ReproError(
            f"unknown trace setup workload {workload!r} "
            "(the replayer understands 'micro')"
        )
    db = Database()
    build_micro_table(db, int(setup["num_tuples"]),
                      seed=int(setup.get("seed", 42)))
    if setup.get("analyze", True):
        db.analyze()
    return db


@dataclass
class ReplayResult:
    """The verdict of replaying one trace."""

    statements: int = 0
    mismatches: list[str] = field(default_factory=list)
    reports: "list[WorkloadReport]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.ok:
            return (f"replay OK: {self.statements} statements, "
                    "every ledger reproduced exactly")
        head = "\n".join(self.mismatches[:10])
        return (f"replay FAILED: {len(self.mismatches)} of "
                f"{self.statements} statements diverged\n{head}")


def _check(recorded: CapturedStatement, rows: int, ledger: "CostLedger",
           where: str, result: ReplayResult) -> None:
    result.statements += 1
    if rows != recorded.rows:
        result.mismatches.append(
            f"{where}: rows {rows} != recorded {recorded.rows}")
    elif ledger.summary() != recorded.ledger:
        result.mismatches.append(
            f"{where}: ledger {ledger.summary()} != recorded "
            f"{recorded.ledger}")


def _replay_run(db: "Database", run: CapturedRun,
                result: ReplayResult) -> None:
    from repro.exec.scheduler import CooperativeScheduler, WorkloadClient

    # One warm connection per distinct planner-options shape, so every
    # replayed statement goes through the same plan-cache keying as the
    # original (options are part of the cache key).
    connections: dict = {}
    statements: dict = {}

    def prepared(stmt: CapturedStatement):
        opts_key = tuple(sorted((stmt.options or {}).items()))
        conn = connections.get(opts_key)
        if conn is None:
            conn = db.connect(options=options_from_dict(stmt.options),
                              cold=False)
            connections[opts_key] = conn
        key = (opts_key, stmt.sql)
        handle = statements.get(key)
        if handle is None:
            handle = statements[key] = conn.prepare(stmt.sql)
        return handle

    try:
        for i, seed in enumerate(run.seeds):
            res = prepared(seed).run(seed.params, cold=seed.cold,
                                     keep_rows=False)
            _check(seed, res.row_count, res.run.ledger,
                   f"{run.label}/seed[{i}]", result)
        if run.clients:
            scheduler = CooperativeScheduler(db, quantum=run.quantum)
            for name, queue in run.clients.items():
                client = WorkloadClient(name, run.weights.get(name, 1))
                for stmt in queue:
                    client.add_query(
                        stmt.label,
                        lambda s=stmt: prepared(s).execute(s.params),
                    )
                scheduler.add_client(client)
            report = scheduler.run(cold=run.cold,
                                   interleave=run.interleave)
            result.reports.append(report)
            for name, queue in run.clients.items():
                replayed = report.for_client(name)
                if len(replayed) != len(queue):
                    result.statements += len(queue)
                    result.mismatches.append(
                        f"{run.label}/{name}: {len(replayed)} queries "
                        f"replayed != recorded {len(queue)}")
                    continue
                # Closed-loop clients finish their queue in order, so
                # completion order == recorded arrival order.
                for i, (stmt, record) in enumerate(zip(queue, replayed, strict=False)):
                    _check(stmt, record.rows, record.ledger,
                           f"{run.label}/{name}[{i}]", result)
    finally:
        for conn in connections.values():
            conn.close()


def replay_trace(trace: WorkloadTrace,
                 db: "Database | None" = None) -> ReplayResult:
    """Replay every run of ``trace``; returns the per-statement verdict.

    ``db`` overrides the setup recipe (replay against an existing
    database — it must hold the same data, or every ledger diverges).
    Runs replay in capture order against the *same* database, matching
    the original single-engine flow (later runs see the buffer pool and
    plan cache exactly as the original later runs did, modulo each
    run's own ``cold`` reset).
    """
    if db is None:
        db = build_database(trace.setup)
    result = ReplayResult()
    for run in trace.runs:
        _replay_run(db, run, result)
    return result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.replay",
        description="Re-run a captured workload trace and verify that "
                    "every per-query cost ledger is reproduced exactly.",
    )
    parser.add_argument("trace", help="path to a workload-trace/v1 JSON "
                                      "file (see repro.telemetry.capture)")
    args = parser.parse_args(argv)
    trace = WorkloadTrace.load(args.trace)
    print(f"loaded {args.trace}: {len(trace.runs)} runs, "
          f"{trace.statement_count} statements, setup={trace.setup}")
    result = replay_trace(trace)
    print(result.describe())
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())

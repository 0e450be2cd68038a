"""Concurrent workload — N clients contending on one shared runtime.

The deployment where the optimizer's assumptions break hardest: several
clients replay cached prepared plans on one engine — one shared disk
head, one shared buffer pool — with the bind parameters drifted away
from the values the plans were cached at.  The
:class:`~repro.exec.scheduler.CooperativeScheduler` interleaves their
batch draining deterministically, so the contention is simulated, not
raced: a client's random index probes seek the head away from another
client's sequential run, and every miss evicts somebody's resident
page.

Two serving configurations run the same workload:

* ``classic`` — cost-based plans (no Sort Scan), cached at a 0.05%-
  selectivity first execution; the drifted replays run a mis-estimated
  index plan whose random I/O collapses under contention;
* ``smooth`` — the same drill with ``enable_smooth``: the cached plan
  is a Smooth Scan, whose morphing keeps I/O sequential and
  amortizable no matter what the parameters drifted to.

Each configuration is measured twice on a cold engine: *serial* (each
client drained to completion in turn — same total work, no
interleaving) and *contended* (round-robin across all clients).  The
comparison yields the paper's robustness story under concurrency:
per-query p50/p99 simulated latency, aggregate throughput, and the
degradation factor contention adds to each configuration.

Every number is simulated and deterministic: client streams are fixed
rotations of the drift grid (staggered so clients contend from
different phases), scheduling is round-robin, and time is the shared
simulated clock.  The run also asserts ledger conservation — summed
per-query ledgers must reproduce the shared runtime totals exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.reporting import format_table
from repro.database import Database
from repro.exec.scheduler import (
    CooperativeScheduler,
    WorkloadClient,
    WorkloadReport,
)
from repro.experiments.common import MicroSetup, make_micro_db
from repro.optimizer.planner import PlannerOptions
from repro.workloads.micro import VALUE_DOMAIN

#: Default workload scale: 60K tuples = 500 heap pages.
DEFAULT_CONCURRENCY_TUPLES = 60_000

#: Number of concurrently-served clients.
DEFAULT_CLIENTS = 4

#: Selectivity (percent) of the execution that caches each plan.
SEED_PCT = 0.05

#: The drifted replay mix every client runs, as selectivity percents.
#: Client *i* replays this grid rotated by *i*, so at any moment the
#: clients sit in different phases of the drift (small index-friendly
#: probes interleaved with large mis-estimated ranges).
MIX_PCT = (0.2, 2.0, 10.0, 30.0, 50.0)

#: The one statement every client prepares and replays.
CONCURRENCY_SQL = "SELECT * FROM micro WHERE c2 >= :lo AND c2 < :hi"

#: Classic serving configuration: cost-based index-vs-full choice.
CLASSIC_OPTIONS = PlannerOptions(enable_sort_scan=False)

#: Smooth serving configuration (§IV-B: "always choose a Smooth Scan").
SMOOTH_OPTIONS = PlannerOptions(enable_sort_scan=False, enable_smooth=True)


def client_streams(num_clients: int) -> list[list[float]]:
    """Per-client selectivity streams: staggered rotations of MIX_PCT."""
    n = len(MIX_PCT)
    return [
        [MIX_PCT[(i + j) % n] for j in range(n)]
        for i in range(num_clients)
    ]


@dataclass
class SeriesRun:
    """One configuration measured serial and contended."""

    name: str
    serial: WorkloadReport
    contended: WorkloadReport
    conservation_ok: bool

    @property
    def degradation(self) -> float:
        """Contended mean latency over serial mean latency."""
        if self.serial.mean_ms <= 0:
            return float("inf")
        return self.contended.mean_ms / self.serial.mean_ms


@dataclass
class ConcurrencyResult:
    """The full experiment: classic vs smooth, serial vs contended."""

    num_clients: int
    queries_per_client: int
    classic: SeriesRun
    smooth: SeriesRun

    @property
    def p99_divergence(self) -> float:
        """Contended classic p99 over contended smooth p99."""
        if self.smooth.contended.p99_ms <= 0:
            return float("inf")
        return self.classic.contended.p99_ms / self.smooth.contended.p99_ms

    @property
    def throughput_divergence(self) -> float:
        """Contended smooth throughput over contended classic throughput."""
        if self.classic.contended.throughput_qps <= 0:
            return float("inf")
        return (self.smooth.contended.throughput_qps
                / self.classic.contended.throughput_qps)

    @property
    def conservation_ok(self) -> bool:
        """True when every run's ledgers summed to the runtime totals."""
        return self.classic.conservation_ok and self.smooth.conservation_ok

    def report(self) -> str:
        headers = ["series", "schedule", "queries", "rows", "p50_s",
                   "p99_s", "mean_s", "makespan_s", "qps"]
        table = []
        for series in (self.classic, self.smooth):
            for label, rep in (("serial", series.serial),
                               ("contended", series.contended)):
                table.append([
                    series.name, label, len(rep.records), rep.rows,
                    rep.p50_ms / 1000, rep.p99_ms / 1000,
                    rep.mean_ms / 1000, rep.makespan_ms / 1000,
                    rep.throughput_qps,
                ])
        lines = [format_table(
            headers, table,
            title=(f"Concurrent workload — {self.num_clients} clients x "
                   f"{self.queries_per_client} queries, round-robin batch "
                   "scheduling on one shared runtime\n"
                   f"(statement: {CONCURRENCY_SQL}; plan cached at "
                   f"{SEED_PCT}% selectivity, replayed across the "
                   "drift mix; simulated times)"),
        )]
        lines.append(
            "divergence under contention: classic p99 / smooth p99 = "
            f"{self.p99_divergence:.1f}x, smooth throughput / classic "
            f"throughput = {self.throughput_divergence:.1f}x"
        )
        lines.append(
            "graceful degradation (contended mean / serial mean): "
            f"classic {self.classic.degradation:.2f}x, smooth "
            f"{self.smooth.degradation:.2f}x"
        )
        lines.append(
            "ledger conservation: "
            + ("exact (per-query ledgers sum to the shared runtime totals)"
               if self.conservation_ok else "VIOLATED")
        )
        lines.append(
            f"clients: {self.num_clients}, quantum: 1 batch, "
            "scheduler: round-robin (deterministic, simulated clock)"
        )
        # The machine-readable rows (workload-report/v1) — the same
        # schema the serving artifact emits, so downstream tooling can
        # join the 4-client and 1,000-client runs.
        for series in (self.classic, self.smooth):
            for label, rep in (("serial", series.serial),
                               ("contended", series.contended)):
                lines.append(f"json {series.name}/{label}: {rep.to_json()}")
        return "\n".join(lines)


def build_schedule(db: Database, statement,
                   num_clients: int) -> CooperativeScheduler:
    """The drill's clients, each replaying its stream of the mix through
    the prepared ``statement``."""
    scheduler = CooperativeScheduler(db)
    for i, stream in enumerate(client_streams(num_clients)):
        client = WorkloadClient(f"c{i + 1}")
        for pct in stream:
            hi = round(pct / 100.0 * VALUE_DOMAIN)
            client.add_query(
                f"{pct:g}%",
                lambda s=statement, p={"lo": 0, "hi": hi}: s.execute(p),
            )
        scheduler.add_client(client)
    return scheduler


def _run_series(db: Database, name: str, options: PlannerOptions,
                num_clients: int) -> SeriesRun:
    """Cache the plan at SEED_PCT, then replay the mix twice."""
    conn = db.connect(options=options, cold=False)
    statement = conn.prepare(CONCURRENCY_SQL)
    seed_hi = round(SEED_PCT / 100.0 * VALUE_DOMAIN)
    # The plan-caching execution (a cold, solo run — the moment the
    # optimizer saw representative-looking parameters).
    statement.run({"lo": 0, "hi": seed_hi}, cold=True, keep_rows=False)

    conserved = True
    reports = {}
    for label, interleave in (("serial", False), ("contended", True)):
        report = build_schedule(db, statement, num_clients).run(
            cold=True, interleave=interleave)
        # Conservation: the scheduled queries are the only activity
        # since the cold start, so their ledgers must sum to the
        # shared totals — no charge lost or double-attributed.
        conserved &= report.total_ledger().matches(db.runtime.totals())
        reports[label] = report
    return SeriesRun(name=name, serial=reports["serial"],
                     contended=reports["contended"],
                     conservation_ok=conserved)


def run_concurrent_workload(
    num_tuples: int = DEFAULT_CONCURRENCY_TUPLES,
    num_clients: int = DEFAULT_CLIENTS,
    setup: MicroSetup | None = None,
) -> ConcurrencyResult:
    """Serve the drifted mix from N clients, classic vs smooth.

    Builds its own database by default (the drill installs fresh
    statistics and populates the plan cache — too intrusive for a
    shared fixture).
    """
    setup = setup or make_micro_db(num_tuples)
    db = setup.db
    db.analyze()  # fresh statistics at plan-caching time
    classic = _run_series(db, "classic", CLASSIC_OPTIONS, num_clients)
    smooth = _run_series(db, "smooth", SMOOTH_OPTIONS, num_clients)
    return ConcurrencyResult(
        num_clients=num_clients,
        queries_per_client=len(MIX_PCT),
        classic=classic,
        smooth=smooth,
    )

"""Serving at scale — 1,000+ protocol clients behind admission control.

The concurrency experiment (:mod:`repro.experiments.concurrency`) put
four clients on one shared runtime through the scheduler directly; this
one pushes the same engine through the *serving front*: every query
arrives as a wire-protocol frame, is priced against the base table's
SLA budget by the :class:`~repro.server.admission.AdmissionController`,
and competes for one of ``max_inflight`` execution slots — the overflow
parks in the FIFO admission queue with its wait measured on the
simulated clock.

Each closed-loop client replays a three-step script over the in-process
transport (:mod:`repro.server.inprocess` — the same sans-IO sessions
the asyncio server drives, minus the sockets, stepped one request per
visit by the :class:`~repro.exec.scheduler.CooperativeScheduler`, so
the run is exactly reproducible):

1. ``prepare`` the shared parameterized statement;
2. ``execute`` a selective probe (admitted outright);
3. ``execute`` a *drifted* replay — the plan cache replays the recipe
   frozen at the 0.05%-selectivity seed, so the admission controller
   re-prices a mis-estimated index plan far over budget.  The micro
   table is partitioned ``SERVING_SHARDS``-way up front (sessions plan
   serially — ``shard_parallel=False`` — so splitting is the front's
   call, not the client's), which lets the controller re-price the
   statement as a shard-parallel exchange plan and **split** it within
   budget instead of degrading; every ``REJECT_EVERY``-th client
   instead pins ``force_path(index)`` with a hint, which forbids both
   splitting and degrading and gets **rejected** with the priced
   estimate.

Two series (``classic`` and ``smooth`` base options), each measured
serial (clients drained one at a time — the fair-share baseline) and
contended (round-robin at full concurrency).  Invariants the benchmark
asserts, all deterministic:

* ledger conservation *through the wire*: per-query ledgers rebuilt
  from protocol ``summary`` frames sum exactly to the runtime totals
  (split executions included — the exchange's per-shard attribution
  folds back into the query ledger the summary frame carries);
* rejections happen only for statements priced over their budget;
* splits happen only for statements priced over budget serially whose
  shard-parallel re-price fits it;
* each series' contended p99 stays within the fair-share bound of
  ``(requests + 1) ×`` its serial p99.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench.reporting import format_table
from repro.database import Database
from repro.exec.scheduler import CooperativeScheduler, WorkloadReport
from repro.experiments.common import MicroSetup, make_micro_db
from repro.experiments.concurrency import (
    CLASSIC_OPTIONS,
    SEED_PCT,
    SMOOTH_OPTIONS,
)
from repro.optimizer.planner import PlannerOptions
from repro.server.admission import AdmissionController, AdmissionStats
from repro.server.inprocess import ScriptedClient
from repro.server.session import ServerFront
from repro.workloads.micro import VALUE_DOMAIN

#: Serving scale: enough heap to contend on, small enough that 1,000
#: clients drain in benchmark time (100 pages at 120 tuples/page).
DEFAULT_SERVING_TUPLES = 12_000

#: The ISSUE's headline scale: 1,000+ concurrent protocol clients.
DEFAULT_SERVING_CLIENTS = 1_000

#: Execution slots; the other ~94% of clients queue FIFO.
DEFAULT_SERVING_INFLIGHT = 64

#: SLA budget: the paper's two-full-scans bound.
DEFAULT_SERVING_SLA = 2.0

#: The micro table is partitioned this many ways before serving starts,
#: giving the admission controller a shard-parallel re-price to admit
#: over-budget statements with (the ``split`` verdict).
SERVING_SHARDS = 4

#: Every Nth client pins force_path(index) on a wide range — priced
#: over budget and not degradable, so admission must reject it.
REJECT_EVERY = 50

#: Selectivity (percent) of each client's admitted probe.
PROBE_PCT = 0.1

#: Drifted-replay selectivities (percent), rotated across clients.
SERVING_MIX_PCT = (0.5, 2.0, 8.0)

#: The statement every client prepares (same text -> one cached plan).
SERVING_SQL = "SELECT * FROM micro WHERE c2 >= :lo AND c2 < :hi"

#: The non-degradable over-budget statement (hint pins the path).
FORCED_SQL = ("SELECT /*+ force_path(index) */ * FROM micro "
              "WHERE c2 >= :lo AND c2 < :hi")


def _hi(pct: float) -> int:
    return round(pct / 100.0 * VALUE_DOMAIN)


@dataclass
class ServingRun:
    """One schedule (serial or contended) of one series."""

    report: WorkloadReport
    admission: AdmissionStats
    #: (client, label, decision detail) per rejected execute.
    rejections: list[tuple[str, str, dict]]
    conservation_ok: bool


@dataclass
class ServingSeries:
    """One base-options configuration, measured serial and contended."""

    name: str
    serial: ServingRun
    contended: ServingRun

    @property
    def conservation_ok(self) -> bool:
        return self.serial.conservation_ok and self.contended.conservation_ok

    @property
    def rejections(self) -> list[tuple[str, str, dict]]:
        return self.serial.rejections + self.contended.rejections

    @property
    def fair_share_bound(self) -> float:
        """The fair-share latency bound: (requests + 1) x serial p99.

        Closed-loop clients run their scripts serially, so at any
        instant each admitted request can have at most every *other*
        request of the workload ahead of it (FIFO queue plus in-flight
        round-robin); with fair sharing none of those costs more than
        the serial p99 service time, so no contended latency may exceed
        the whole fleet's worth of fair slices plus its own.
        """
        requests = len(self.serial.report.records)
        return (requests + 1) * self.serial.report.p99_ms

    @property
    def within_fair_share(self) -> bool:
        return self.contended.report.p99_ms <= self.fair_share_bound


@dataclass
class ServingResult:
    """The full serving experiment: classic vs smooth through the front."""

    num_clients: int
    max_inflight: int
    sla_multiple: float
    #: How many ways the serving table was partitioned (1 = unsharded:
    #: no split verdicts possible, over-budget statements degrade).
    num_shards: int
    classic: ServingSeries
    smooth: ServingSeries

    @property
    def conservation_ok(self) -> bool:
        return self.classic.conservation_ok and self.smooth.conservation_ok

    def all_rejections(self) -> list[tuple[str, str, dict]]:
        return self.classic.rejections + self.smooth.rejections

    def all_splits(self) -> list[tuple[float, float, float]]:
        """Every split's (serial estimate, split estimate, budget)."""
        splits: list[tuple[float, float, float]] = []
        for series in (self.classic, self.smooth):
            for run in (series.serial, series.contended):
                splits.extend(run.admission.splits)
        return splits

    @property
    def rejections_priced_over_budget(self) -> bool:
        """Every rejection must carry estimate > budget — admission
        rejects on price, never on load."""
        rejections = self.all_rejections()
        return bool(rejections) and all(
            detail["estimated_cost"] > detail["budget"]
            for _client, _label, detail in rejections
        )

    @property
    def splits_within_budget(self) -> bool:
        """Every split: serial estimate > budget >= split estimate —
        splitting only rescues statements that needed rescuing, and
        only when the shard-parallel re-price actually fits.  An
        unsharded run must produce no splits at all."""
        splits = self.all_splits()
        if self.num_shards < 2:
            return not splits
        return bool(splits) and all(
            serial > budget >= parallel
            for serial, parallel, budget in splits
        )

    def report(self) -> str:
        headers = ["series", "schedule", "queries", "rows", "p50_s",
                   "p99_s", "makespan_s", "qps", "admit", "split",
                   "degrade", "reject", "queued", "qwait_p50_s",
                   "qwait_p99_s"]
        table = []
        for series in (self.classic, self.smooth):
            for label, run in (("serial", series.serial),
                               ("contended", series.contended)):
                rep, adm = run.report, run.admission
                table.append([
                    series.name, label, len(rep.records), rep.rows,
                    rep.p50_ms / 1000, rep.p99_ms / 1000,
                    rep.makespan_ms / 1000, rep.throughput_qps,
                    adm.admitted, adm.split, adm.degraded, adm.rejected,
                    adm.queued,
                    adm.queue_wait_p50_ms / 1000,
                    adm.queue_wait_p99_ms / 1000,
                ])
        lines = [format_table(
            headers, table,
            title=(f"Serving workload — {self.num_clients} protocol "
                   f"clients, {self.max_inflight} in-flight slots, SLA = "
                   f"{self.sla_multiple:g} full scans, micro partitioned "
                   f"{self.num_shards}-way\n"
                   f"(statement: {SERVING_SQL}; plan cached at "
                   f"{SEED_PCT}% selectivity; every {REJECT_EVERY}th "
                   "client pins force_path(index); in-process transport, "
                   "simulated times)"),
        )]
        for series in (self.classic, self.smooth):
            lines.append(
                f"fair-share bound [{series.name}]: contended p99 "
                f"{series.contended.report.p99_ms / 1000:.3f}s <= "
                "(requests+1) x serial p99 = "
                f"{series.fair_share_bound / 1000:.3f}s: "
                + ("ok" if series.within_fair_share else "VIOLATED")
            )
        lines.append(
            f"admission rejections: {len(self.all_rejections())}, "
            "all priced over the SLA budget: "
            + ("ok" if self.rejections_priced_over_budget else "VIOLATED")
        )
        lines.append(
            f"admission splits: {len(self.all_splits())}, all serial "
            "estimates over budget and all shard-parallel re-prices "
            "within it: "
            + ("ok" if self.splits_within_budget else "VIOLATED")
        )
        lines.append(
            "ledger conservation through the wire: "
            + ("exact (summed protocol-frame ledgers reproduce the "
               "runtime totals)" if self.conservation_ok else "VIOLATED")
        )
        for series in (self.classic, self.smooth):
            for label, run in (("serial", series.serial),
                               ("contended", series.contended)):
                lines.append(
                    f"json {series.name}/{label}: {run.report.to_json()}"
                )
        return "\n".join(lines)


def _build_schedule(
        db: Database, options: PlannerOptions, num_clients: int,
        max_inflight: int, sla_multiple: float,
) -> tuple[CooperativeScheduler, ServerFront, list[ScriptedClient]]:
    front = ServerFront(
        db, options=options,
        admission=AdmissionController(db, sla_multiple=sla_multiple,
                                      max_inflight=max_inflight),
    )
    sched = CooperativeScheduler(db)
    clients = []
    mix = SERVING_MIX_PCT
    for i in range(num_clients):
        client = sched.add_client(ScriptedClient(f"c{i + 1}", front))
        clients.append(client)
        client.prepare("st", SERVING_SQL)
        client.execute("st", {"lo": 0, "hi": _hi(PROBE_PCT)},
                       label="probe")
        if (i + 1) % REJECT_EVERY == 0:
            client.execute(FORCED_SQL, {"lo": 0, "hi": _hi(50.0)},
                           label="forced-index")
        else:
            pct = mix[i % len(mix)]
            client.execute("st", {"lo": 0, "hi": _hi(pct)},
                           label=f"{pct:g}%")
    return sched, front, clients


def _run_series(db: Database, name: str, options: PlannerOptions,
                num_clients: int, max_inflight: int,
                sla_multiple: float) -> ServingSeries:
    # Seed the plan cache the way the concurrency drill does: one cold
    # execution at unrepresentative (tiny) selectivity freezes the
    # recipe every later client replays drifted.
    conn = db.connect(options=options, cold=False)
    statement = conn.prepare(SERVING_SQL)
    statement.run({"lo": 0, "hi": _hi(SEED_PCT)}, cold=True,
                  keep_rows=False)
    runs = {}
    for label, interleave in (("serial", False), ("contended", True)):
        sched, front, clients = _build_schedule(
            db, options, num_clients, max_inflight, sla_multiple)
        report = sched.run(cold=True, interleave=interleave)
        conserved = report.total_ledger() == db.runtime.totals()
        runs[label] = ServingRun(
            report=report,
            admission=front.admission.stats,
            rejections=[(client.name, what, detail) for client in clients
                        for what, detail in client.rejections],
            conservation_ok=conserved,
        )
        for client in clients:
            client.close()
    return ServingSeries(name=name, serial=runs["serial"],
                         contended=runs["contended"])


def run_serving_workload(
    num_tuples: int = DEFAULT_SERVING_TUPLES,
    num_clients: int = DEFAULT_SERVING_CLIENTS,
    max_inflight: int = DEFAULT_SERVING_INFLIGHT,
    sla_multiple: float = DEFAULT_SERVING_SLA,
    num_shards: int = SERVING_SHARDS,
    setup: MicroSetup | None = None,
) -> ServingResult:
    """Serve the scripted client fleet, classic vs smooth base options."""
    setup = setup or make_micro_db(num_tuples)
    db = setup.db
    # Partition the serving table up front: the shard set is what gives
    # admission its shard-parallel re-price (the split verdict).
    # Sessions themselves plan serially (shard_parallel=False) — going
    # wide is the front's budget-driven call, not the client's.
    if num_shards >= 2:
        db.shard_table("micro", num_shards)
    db.analyze()  # fresh statistics at plan-caching time
    classic = _run_series(db, "classic",
                          replace(CLASSIC_OPTIONS, shard_parallel=False),
                          num_clients, max_inflight, sla_multiple)
    smooth = _run_series(db, "smooth",
                         replace(SMOOTH_OPTIONS, shard_parallel=False),
                         num_clients, max_inflight, sla_multiple)
    return ServingResult(
        num_clients=num_clients,
        max_inflight=max_inflight,
        sla_multiple=sla_multiple,
        num_shards=num_shards,
        classic=classic,
        smooth=smooth,
    )

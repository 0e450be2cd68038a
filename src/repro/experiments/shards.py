"""Shard-parallel scaling — partitioned Smooth Scans behind an Exchange.

Two sweeps over the shard count N ∈ ``SHARD_COUNTS``, both on simulated
time so the scaling verdicts are deterministic:

1. **Selectivity sweep** (the fig5 grid): the micro query runs cold at
   every selectivity point, serially (N = 1) and through an
   :class:`~repro.exec.exchange.Exchange` over N round-robin shards.
   Shards progress concurrently — the exchange overlaps their simulated
   I/O and CPU by dividing its share of the clock by the live shards — so a
   scan-bound point completes near-linearly faster, while the serial
   coordinator merge (one ``exchange_row`` charge per row) bounds the
   speedup below N (Amdahl).  Every sharded run is checked for exact
   row equality against the serial result and for *ledger
   conservation*: the per-shard attribution windows' ledgers must sum
   to the run's own ledger exactly (every counter is an integer).

2. **Serving mix** (the 1,000-client fleet of
   :mod:`repro.experiments.serving`, classic options): the same
   drifted-replay workload runs contended at each N.  Unsharded, the
   over-budget replays degrade to bounded Smooth Scans; partitioned,
   the admission controller re-prices them at N shards and admits them
   with the ``split`` verdict — the makespan column quantifies what
   splitting buys at serving scale.

The report ends with the machine-checked verdict lines CI greps:
near-linear scaling, the ≥2x speedup at 4 shards for the scan-bound
(100% selectivity) point, conservation, and the exchange overhead
(extra total work of the sharded runs vs. serial — merge CPU plus any
per-shard head repositioning).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.bench.reporting import format_table
from repro.exec.exchange import Exchange
from repro.experiments.common import (
    COARSE_GRID_PCT,
    DEFAULT_MICRO_TUPLES,
    make_micro_db,
)
from repro.experiments.concurrency import CLASSIC_OPTIONS, SEED_PCT
from repro.experiments.serving import (
    DEFAULT_SERVING_CLIENTS,
    DEFAULT_SERVING_INFLIGHT,
    DEFAULT_SERVING_SLA,
    DEFAULT_SERVING_TUPLES,
    SERVING_SQL,
    _build_schedule,
    _hi,
)
from repro.runtime import CostLedger
from repro.workloads.micro import selectivity_predicate

#: The shard counts both sweeps cover (1 = the serial baseline).
SHARD_COUNTS = (1, 2, 4, 8)

#: The scan-bound selectivity point the headline speedup is read at.
SCAN_BOUND_PCT = 100.0


@dataclass
class ServingPoint:
    """The classic serving series run contended at one shard count."""

    num_shards: int
    makespan_ms: float
    p99_ms: float
    admitted: int
    split: int
    degraded: int
    rejected: int
    conservation_ok: bool


@dataclass
class ShardScalingResult:
    """Both sweeps plus the derived verdicts."""

    shard_counts: tuple
    selectivities_pct: list[float]
    #: num_shards -> per-selectivity simulated seconds.
    seconds: dict[int, list[float]] = field(default_factory=dict)
    #: Per-selectivity row counts (asserted identical across N).
    rows: list[int] = field(default_factory=list)
    rows_ok: bool = True
    conservation_ok: bool = True
    serving: list[ServingPoint] = field(default_factory=list)

    def speedup(self, num_shards: int, sel_index: int) -> float:
        return (self.seconds[1][sel_index]
                / self.seconds[num_shards][sel_index])

    @property
    def scan_bound_index(self) -> int:
        return self.selectivities_pct.index(SCAN_BOUND_PCT)

    def scan_bound_speedup(self, num_shards: int) -> float:
        """Speedup at the scan-bound (100% selectivity) point."""
        return self.speedup(num_shards, self.scan_bound_index)

    @property
    def near_linear(self) -> bool:
        """Scan-bound speedup grows with every added shard and stays
        at least half of ideal (the merge is the serial fraction)."""
        i = self.scan_bound_index
        speedups = [self.speedup(n, i) for n in self.shard_counts]
        monotone = all(a < b for a, b in zip(speedups, speedups[1:]))
        efficient = all(
            self.speedup(n, i) >= 0.5 * n
            for n in self.shard_counts if n > 1
        )
        return monotone and efficient

    def exchange_overhead_pct(self, num_shards: int) -> float:
        """Completion-time overhead vs *ideal* linear scaling at the
        scan-bound point, in percent: ``N / speedup - 1``.  This is
        the exchange's price — the serial coordinator merge (one CPU
        charge per row, unshrunk by N) plus the straggler tail as
        shards drain."""
        return (num_shards / self.scan_bound_speedup(num_shards)
                - 1.0) * 100.0

    @property
    def serving_split_speedup(self) -> float:
        """Contended makespan improvement of the 4-way split runs over
        the unsharded (degrade-based) serving baseline."""
        by_n = {p.num_shards: p for p in self.serving}
        return by_n[1].makespan_ms / by_n[4].makespan_ms

    def report(self) -> str:
        headers = (["sel_%"]
                   + [f"N={n}_s" for n in self.shard_counts]
                   + [f"speedup_N={n}" for n in self.shard_counts
                      if n > 1])
        table = []
        for i, sel in enumerate(self.selectivities_pct):
            row = [sel] + [self.seconds[n][i] for n in self.shard_counts]
            row += [self.speedup(n, i) for n in self.shard_counts
                    if n > 1]
            table.append(row)
        lines = [format_table(
            headers, table,
            title=("Shard-parallel scaling — micro query, cold runs, "
                   "simulated completion time (s) by shard count\n"
                   "(round-robin shards, per-shard access paths chosen "
                   "independently, serial coordinator merge)"),
        )]
        serving_headers = ["shards", "makespan_s", "p99_s", "admit",
                           "split", "degrade", "reject", "conservation"]
        serving_table = [
            [p.num_shards, p.makespan_ms / 1000, p.p99_ms / 1000,
             p.admitted, p.split, p.degraded, p.rejected,
             "exact" if p.conservation_ok else "VIOLATED"]
            for p in self.serving
        ]
        lines.append("")
        lines.append(format_table(
            serving_headers, serving_table,
            title=(f"Serving mix — {DEFAULT_SERVING_CLIENTS} clients, "
                   "classic options, contended schedule, by shard "
                   "count\n(unsharded over-budget replays degrade; "
                   "partitioned ones are split-admitted)"),
        ))
        i = self.scan_bound_index
        lines.append(
            f"scan-bound speedup at 4 shards: "
            f"{self.scan_bound_speedup(4):.2f}x >= 2x: "
            + ("ok" if self.scan_bound_speedup(4) >= 2.0 else "VIOLATED")
        )
        lines.append(
            "near-linear scaling (monotone speedup, >= 50% parallel "
            "efficiency at the scan-bound point): "
            + ("ok" if self.near_linear else "VIOLATED")
        )
        lines.append(
            "rows identical across shard counts and schemes: "
            + ("ok" if self.rows_ok else "VIOLATED")
        )
        lines.append(
            "ledger conservation across shards: "
            + ("exact (summed per-shard ledgers reproduce each run's "
               "ledger)" if self.conservation_ok else "VIOLATED")
        )
        for n in self.shard_counts:
            if n == 1:
                continue
            lines.append(
                f"exchange overhead at {n} shards (scan-bound): "
                f"+{self.exchange_overhead_pct(n):.1f}% completion "
                "time vs ideal linear scaling (serial merge + "
                "straggler tail)"
            )
        lines.append(
            "serving makespan improvement from split admission "
            f"(4 shards vs unsharded): "
            f"{self.serving_split_speedup:.2f}x"
        )
        return "\n".join(lines)


def _shard_ledger_sum(res) -> CostLedger | None:
    """Summed per-shard exchange ledgers, or None for a serial plan."""
    for op in res.plan.operators():
        if isinstance(op, Exchange):
            total = CostLedger()
            for ledger in op.shard_ledgers:
                total.add(ledger)
            return total
    return None


def _sweep(result: ShardScalingResult, num_tuples: int) -> None:
    setup = make_micro_db(num_tuples)
    db = setup.db
    for n in result.shard_counts:
        if n > 1:
            db.shard_table("micro", n)
        db.analyze()
        seconds: list[float] = []
        rows: list[int] = []
        for sel_pct in result.selectivities_pct:
            query = db.query("micro").where(
                selectivity_predicate(sel_pct / 100.0)
            )
            res = db.execute(query, cold=True, keep_rows=False)
            seconds.append(res.run.total_seconds)
            rows.append(res.row_count)
            shard_sum = _shard_ledger_sum(res)
            if n == 1:
                if shard_sum is not None:  # serial must stay serial
                    result.conservation_ok = False
            elif shard_sum is not None and shard_sum != res.run.ledger:
                # A sharded table may still plan serially (the model
                # says going wide loses — e.g. a point lookup); only
                # actual exchange runs owe the conservation proof.
                result.conservation_ok = False
        result.seconds[n] = seconds
        if n == 1:
            result.rows = rows
        elif rows != result.rows:
            result.rows_ok = False
    if db.shard_set("micro") is not None:
        db.unshard_table("micro")


def _serving_point(num_shards: int, num_tuples: int,
                   num_clients: int) -> ServingPoint:
    setup = make_micro_db(num_tuples)
    db = setup.db
    if num_shards > 1:
        db.shard_table("micro", num_shards)
    db.analyze()
    options = replace(CLASSIC_OPTIONS, shard_parallel=False)
    conn = db.connect(options=options, cold=False)
    statement = conn.prepare(SERVING_SQL)
    statement.run({"lo": 0, "hi": _hi(SEED_PCT)}, cold=True,
                  keep_rows=False)
    sched, front, clients = _build_schedule(
        db, options, num_clients, DEFAULT_SERVING_INFLIGHT,
        DEFAULT_SERVING_SLA)
    report = sched.run(cold=True, interleave=True)
    conserved = report.total_ledger() == db.runtime.totals()
    stats = front.admission.stats
    point = ServingPoint(
        num_shards=num_shards,
        makespan_ms=report.makespan_ms,
        p99_ms=report.p99_ms,
        admitted=stats.admitted,
        split=stats.split,
        degraded=stats.degraded,
        rejected=stats.rejected,
        conservation_ok=conserved,
    )
    for client in clients:
        client.close()
    return point


def run_shard_scaling(
    num_tuples: int = DEFAULT_MICRO_TUPLES,
    serving_tuples: int = DEFAULT_SERVING_TUPLES,
    num_clients: int = DEFAULT_SERVING_CLIENTS,
    shard_counts: tuple = SHARD_COUNTS,
    selectivities_pct: tuple = COARSE_GRID_PCT,
) -> ShardScalingResult:
    """Run both sweeps and derive the scaling verdicts."""
    result = ShardScalingResult(
        shard_counts=shard_counts,
        selectivities_pct=list(selectivities_pct),
    )
    _sweep(result, num_tuples)
    for n in shard_counts:
        result.serving.append(
            _serving_point(n, serving_tuples, num_clients)
        )
    return result

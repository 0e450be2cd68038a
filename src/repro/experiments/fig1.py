"""Figure 1: non-robust performance after tuning (the DBMS-X motivation).

Pipeline, mirroring Section VI-B:

1. Generate TPC-H in two chronological ingest batches (orders dated up to
   the end of 1993 first, the rest later) and collect statistics *after
   batch 1 only* — the paper's "outdated or non-existent" statistics: any
   date range past the cutoff estimates to ≈ 0 rows, while its matches
   are physically scattered through the heap tail.  The correlated date
   conjunctions of Q12 additionally fall through to blind AVI defaults.
2. Run all 19 queries untuned ("original"): full scans + hash joins.
3. Let the index advisor propose secondary indexes under a space budget of
   half the data-set size (the paper gives DBMS-X's tool 5GB of 10GB) and
   create them, plus the foreign-key join indexes a tuning tool adds.
4. Re-run "tuned": the cost-based planner now routes queries through the
   new indexes using its (wrong) estimates.
5. Optionally run "smooth": identical plans with Smooth Scan access paths.

Reported per query: tuned time normalized to original (Figure 1's y-axis).
Expected shape: most queries near 1.0, a few clearly above (Q12 worst,
Q19/Q7/Q6 prominent), and smooth repairing the regressions.  Absolute
factors are smaller than the paper's ×400 because the scaled tables fit
partially in the buffer pool, which caps the damage random I/O can do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.reporting import format_table
from repro.bench.runner import run_cold
from repro.database import Database
from repro.exec.stats import RunResult
from repro.optimizer.advisor import IndexAdvisor, WorkloadQuery
from repro.optimizer.statistics import StatisticsCatalog
from repro.sql import compile_statement
from repro.workloads.tpch.generator import TpchTables, generate_tpch
from repro.workloads.tpch.queries import (
    FIGURE1_QUERIES,
    SQL_QUERIES,
    TpchPlanBuilder,
    build_query,
    mode_options,
)
from repro.exec.expressions import (
    And,
    Between,
    ColumnComparison,
    CompareOp,
    Comparison,
    InList,
    StringMatch,
)
from repro.workloads.tpch.schema import date

DEFAULT_SCALE_FACTOR = 0.01
#: Statistics were collected when the newest *order* was from 1993-09-02;
#: with the spec's ≤121-day shipping delay, no shipment the statistics
#: ever saw reaches 1994 — so every 1994+ date range estimates to ≈ 0.
STALE_DATE_CUTOFF = date(1993, 9, 2)

#: Per-query filtered scans the advisor sees as its workload (the same
#: predicates the query builders use).
ADVISOR_WORKLOAD: list[WorkloadQuery] = [
    WorkloadQuery("lineitem",
                  Comparison("l_shipdate", CompareOp.LE, date(1998, 9, 2))),
    WorkloadQuery("lineitem", And([
        InList("l_shipmode", ("MAIL", "SHIP")),
        ColumnComparison("l_commitdate", CompareOp.LT, "l_receiptdate"),
        ColumnComparison("l_shipdate", CompareOp.LT, "l_commitdate"),
        Between("l_receiptdate", date(1994, 1, 1), date(1995, 1, 1)),
    ])),
    WorkloadQuery("lineitem", And([
        Between("l_shipdate", date(1994, 1, 1), date(1995, 1, 1)),
        Between("l_discount", 0.05, 0.07, hi_inclusive=True),
        Comparison("l_quantity", CompareOp.LT, 24),
    ])),
    WorkloadQuery("lineitem",
                  Between("l_shipdate", date(1995, 9, 1), date(1995, 10, 1))),
    WorkloadQuery("lineitem",
                  Between("l_shipdate", date(1995, 1, 1),
                          date(1996, 12, 31), hi_inclusive=True)),
    WorkloadQuery("orders",
                  Between("o_orderdate", date(1993, 7, 1),
                          date(1993, 10, 1))),
    WorkloadQuery("orders",
                  Between("o_orderdate", date(1994, 1, 1), date(1995, 1, 1))),
    WorkloadQuery("part", And([
        Comparison("p_size", CompareOp.EQ, 15),
        StringMatch("p_type", "suffix", "BRASS"),
    ])),
    WorkloadQuery("customer",
                  Comparison("c_mktsegment", CompareOp.EQ, "BUILDING")),
]

#: Foreign-key join indexes a tuning tool adds alongside the predicates.
FK_JOIN_INDEXES: list[tuple[str, str]] = [
    ("lineitem", "l_partkey"),
    ("orders", "o_custkey"),
]


@dataclass
class Fig1Setup:
    """A tuned TPC-H database shared by Figures 1/4 and Table II."""

    db: Database
    tables: TpchTables
    catalog: StatisticsCatalog
    recommended: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class Fig1Result:
    """Per-query original/tuned(/smooth) times and normalized factors."""

    queries: list[str]
    original_s: dict[str, float] = field(default_factory=dict)
    tuned_s: dict[str, float] = field(default_factory=dict)
    smooth_s: dict[str, float] = field(default_factory=dict)
    recommended: list[tuple[str, str]] = field(default_factory=list)

    def normalized(self, name: str) -> float:
        """Tuned time over original time (Figure 1's y-axis)."""
        orig = self.original_s[name]
        return self.tuned_s[name] / orig if orig > 0 else 1.0

    def workload_factor(self) -> float:
        """Total tuned time over total original time."""
        total_orig = sum(self.original_s.values())
        total_tuned = sum(self.tuned_s.values())
        return total_tuned / total_orig if total_orig > 0 else 1.0

    def report(self) -> str:
        rows = []
        for name in self.queries:
            row = [name, self.original_s[name], self.tuned_s[name],
                   self.normalized(name)]
            if self.smooth_s:
                row.append(self.smooth_s[name])
            rows.append(row)
        headers = ["query", "original_s", "tuned_s", "tuned/original"]
        if self.smooth_s:
            headers.append("smooth_s")
        lines = [format_table(headers, rows,
                              title="Figure 1 — normalized execution time "
                                    "after tuning")]
        lines.append(
            f"workload factor (tuned/original): {self.workload_factor():.2f}"
        )
        lines.append(f"indexes created: {self.recommended}")
        return "\n".join(lines)


def make_tuned_tpch(scale_factor: float = DEFAULT_SCALE_FACTOR,
                    seed: int = 2015,
                    stale_cutoff: int | None = STALE_DATE_CUTOFF,
                    space_budget_fraction: float = 0.5) -> Fig1Setup:
    """Generate, analyze (stale), and tune a TPC-H database."""
    db = Database()
    tables = generate_tpch(db, scale_factor=scale_factor, seed=seed,
                           stale_batch_cutoff=stale_cutoff)
    stale_rows = {
        "orders": tables.extras.get("orders_stale_rows"),
        "lineitem": tables.extras.get("lineitem_stale_rows"),
    }
    catalog = StatisticsCatalog()
    for table in tables.all_tables():
        batch1 = stale_rows.get(table.name)
        if batch1 is not None and batch1 < table.row_count:
            catalog.analyze(
                table, prefix_fraction=batch1 / table.row_count
            )
        else:
            catalog.analyze(table)
    advisor = IndexAdvisor(db, catalog)
    total_bytes = sum(
        t.num_pages * db.config.page_size for t in tables.all_tables()
    )
    rec = advisor.recommend(ADVISOR_WORKLOAD,
                            int(total_bytes * space_budget_fraction))
    advisor.apply(rec)
    created = list(rec.indexes)
    for table_name, column in FK_JOIN_INDEXES:
        if not db.table(table_name).has_index(column):
            db.create_index(table_name, column)
            created.append((table_name, column))
    return Fig1Setup(db=db, tables=tables, catalog=catalog,
                     recommended=created)


def run_fig1(scale_factor: float = DEFAULT_SCALE_FACTOR,
             queries: list[str] | None = None,
             include_smooth: bool = True,
             setup: Fig1Setup | None = None) -> Fig1Result:
    """Run the Figure-1 comparison."""
    setup = setup or make_tuned_tpch(scale_factor)
    names = queries or list(FIGURE1_QUERIES)
    result = Fig1Result(queries=names, recommended=setup.recommended)

    modes = [("original", result.original_s), ("tuned", result.tuned_s)]
    if include_smooth:
        modes.append(("smooth", result.smooth_s))
    for mode, store in modes:
        builder = TpchPlanBuilder(setup.db, setup.catalog, mode)
        for name in names:
            store[name] = run_tpch_query(setup, builder, name).total_seconds
    return result


def run_tpch_query(setup: Fig1Setup, builder: TpchPlanBuilder,
                   name: str) -> "RunResult":
    """Measure one query cold (shared by the Figure 1 and 4 drivers).

    Queries with SQL text run through the public ``Database.execute``
    facade (SQL → bound spec → ``plan_query`` → batch engine) — the same
    code path applications use; the rest keep their hand-built operator
    trees.  Both routes follow ``builder.mode`` and lower to identical
    physical plans, so they are measurement-equivalent.
    """
    text = SQL_QUERIES.get(name)
    if text is not None:
        bound = compile_statement(setup.db, text)
        return setup.db.execute(
            bound.spec, cold=True, keep_rows=False,
            options=bound.planner_options(mode_options(builder.mode)),
            catalog=setup.catalog,
        ).run
    plan = build_query(name, builder)
    return run_cold(setup.db, f"{builder.mode}:{name}", plan).result

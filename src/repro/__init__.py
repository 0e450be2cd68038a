"""repro — a reproduction of "Smooth Scan: Statistics-Oblivious Access Paths"
(Borovica-Gajic, Idreos, Ailamaki, Zukowski, Fraser — ICDE 2015).

The package implements, from scratch, everything the paper's evaluation
needs: a paged storage engine over a simulated disk, a B+-tree, a Volcano
executor with the three traditional access paths, the Smooth Scan and
Switch Scan operators (the paper's contribution), the Section V cost
model, a cost-based optimizer with stale-statistics injection, the
micro/skew/TPC-H workloads, and one experiment module per paper figure.

Quickstart (declarative — the planner picks the access paths)::

    from repro import Between, Database, PlannerOptions
    from repro.workloads import build_micro_table

    db = Database()
    build_micro_table(db, num_tuples=120_000)
    q = db.query("micro").where(Between("c2", 0, 20_000)).order_by("c2")
    result = db.execute(q, options=PlannerOptions(enable_smooth=True))
    print(result)             # rows, simulated time, I/O requests
    print(result.explain())   # plan tree, estimated vs. actual rows

Physical plans remain available for experiments that pin exact shapes::

    from repro import KeyRange, SmoothScan, measure
    scan = SmoothScan(db.table("micro"), "c2", KeyRange(0, 20_000))
    print(measure(db, scan))
"""

from repro.api import (
    Connection,
    Cursor,
    PreparedStatement,
    Query,
    QueryResult,
)
from repro.config import CpuCosts, EngineConfig
from repro.context import ExecutionContext
from repro.core import (
    EagerTrigger,
    ElasticPolicy,
    GreedyPolicy,
    OptimizerDrivenTrigger,
    SLADrivenTrigger,
    SelectivityIncreasePolicy,
    SmoothScan,
    SwitchScan,
)
from repro.database import Database
from repro.errors import InterfaceError, ReproError, SqlError
from repro.optimizer import (
    PlanDecision,
    PlannedQuery,
    Planner,
    PlannerOptions,
    QuerySpec,
    StatisticsCatalog,
)
from repro.exec import (
    Between,
    Comparison,
    CompareOp,
    CooperativeScheduler,
    FullTableScan,
    IndexScan,
    KeyRange,
    RunResult,
    SortScan,
    WorkloadClient,
    WorkloadReport,
    measure,
)
from repro.runtime import CostLedger, EngineRuntime
from repro.storage import Column, ColumnType, DiskProfile, Schema

__version__ = "1.0.0"

__all__ = [
    "Between",
    "Column",
    "ColumnType",
    "CompareOp",
    "Comparison",
    "Connection",
    "CooperativeScheduler",
    "CostLedger",
    "Cursor",
    "CpuCosts",
    "Database",
    "DiskProfile",
    "EagerTrigger",
    "EngineRuntime",
    "ElasticPolicy",
    "EngineConfig",
    "ExecutionContext",
    "FullTableScan",
    "GreedyPolicy",
    "IndexScan",
    "InterfaceError",
    "KeyRange",
    "OptimizerDrivenTrigger",
    "PlanDecision",
    "PlannedQuery",
    "PreparedStatement",
    "Planner",
    "PlannerOptions",
    "Query",
    "QueryResult",
    "QuerySpec",
    "ReproError",
    "RunResult",
    "SLADrivenTrigger",
    "Schema",
    "SelectivityIncreasePolicy",
    "SmoothScan",
    "SortScan",
    "SqlError",
    "StatisticsCatalog",
    "SwitchScan",
    "WorkloadClient",
    "WorkloadReport",
    "measure",
]

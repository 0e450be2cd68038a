"""Physical execution engine: expressions, operators, measurement."""

from repro.exec.aggregates import AggSpec, HashAggregate
from repro.exec.expressions import (
    And,
    Between,
    Comparison,
    CompareOp,
    InList,
    KeyRange,
    Not,
    Or,
    Predicate,
    TruePredicate,
    conjunction,
    extract_range,
)
from repro.exec.iterator import (
    DEFAULT_BATCH_SIZE,
    Operator,
    explain,
)
from repro.exec.joins import (
    HashJoin,
    IndexNestedLoopJoin,
)
from repro.exec.misc import (
    Filter,
    Limit,
    MapProject,
    Materialize,
    Project,
    Rename,
    RowCounter,
)
from repro.exec.scans import FullTableScan, IndexScan, SortScan
from repro.exec.scheduler import (
    CooperativeScheduler,
    QueryRecord,
    WorkloadClient,
    WorkloadReport,
)
from repro.exec.sort import Sort
from repro.exec.stats import RunResult, StreamingRun, measure

__all__ = [
    "AggSpec",
    "And",
    "Between",
    "DEFAULT_BATCH_SIZE",
    "Comparison",
    "CompareOp",
    "CooperativeScheduler",
    "Filter",
    "FullTableScan",
    "HashAggregate",
    "HashJoin",
    "IndexNestedLoopJoin",
    "IndexScan",
    "InList",
    "KeyRange",
    "Limit",
    "MapProject",
    "Materialize",
    "Not",
    "Operator",
    "Or",
    "Predicate",
    "Project",
    "QueryRecord",
    "Rename",
    "RowCounter",
    "RunResult",
    "StreamingRun",
    "WorkloadClient",
    "WorkloadReport",
    "Sort",
    "SortScan",
    "TruePredicate",
    "conjunction",
    "explain",
    "extract_range",
    "measure",
]

"""Access-path costing for the planner.

Thin adapters turning (table, estimated selectivity) into the Section V
formulas, so the planner compares alternatives in the same units the
analytic model uses.  A configurable ``sort_penalty`` represents the CPU
cost of the posterior sort a blocking path needs under an ORDER BY.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import EngineConfig
from repro.costmodel import formulas
from repro.costmodel.params import CostParams
from repro.storage.disk import DiskProfile
from repro.storage.table import Table


@dataclass(frozen=True)
class AccessPathCost:
    """One candidate access path with its estimated cost in I/O units."""

    path: str          # "full" | "index" | "sort" | "smooth"
    cost: float
    ordered_output: bool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.path}:{self.cost:.0f}"


def params_for(table: Table, config: EngineConfig, profile: DiskProfile,
               column: str, selectivity: float) -> CostParams:
    """Cost-model parameters for one (table, column, selectivity)."""
    return CostParams.from_table(table, config, profile, column, selectivity)


def sort_cpu_cost(card: int, profile: DiskProfile,
                  compare_ms: float) -> float:
    """Posterior-sort CPU converted into I/O cost units."""
    if card < 2:
        return 0.0
    comparisons = card * max(1, (card - 1).bit_length())
    return comparisons * compare_ms / profile.ms_per_unit


def candidate_paths(table: Table, config: EngineConfig,
                    profile: DiskProfile, column: str | None,
                    selectivity: float, require_order: bool = False,
                    enable_smooth: bool = False,
                    assume_index: bool = False,
                    index_satisfies_order: bool = True
                    ) -> list[AccessPathCost]:
    """All viable access paths for one scan, costed at ``selectivity``.

    ``column`` is the indexed column usable for the predicate (None when
    no index applies — then only the full scan qualifies).  With
    ``require_order`` the posterior sort penalty is added to paths that
    do not emit in the requested order; key-ordered paths (index,
    smooth) escape it only while ``index_satisfies_order`` holds, i.e.
    the requested order is on ``column`` itself.  ``assume_index`` costs
    the index paths even when the index does not exist yet (what-if
    costing for the advisor).
    """
    indexed = column is not None and (table.has_index(column) or assume_index)
    key_column = column if indexed else table.schema.column_names[0]
    p = params_for(table, config, profile, key_column, selectivity)
    sort_penalty = sort_cpu_cost(p.cardinality, profile,
                                 config.cpu.compare) if require_order else 0.0
    key_ordered = not require_order or index_satisfies_order
    key_penalty = 0.0 if key_ordered else sort_penalty
    paths = [
        AccessPathCost("full", formulas.full_scan_cost(p) + sort_penalty,
                       ordered_output=not require_order)
    ]
    if indexed:
        paths.append(
            AccessPathCost("index",
                           formulas.index_scan_cost(p) + key_penalty,
                           ordered_output=key_ordered)
        )
        paths.append(
            AccessPathCost("sort",
                           formulas.sort_scan_cost(p) + sort_penalty,
                           ordered_output=not require_order)
        )
        if enable_smooth:
            paths.append(
                AccessPathCost("smooth",
                               formulas.smooth_scan_cost(p) + key_penalty,
                               ordered_output=key_ordered)
            )
    return paths


def cheapest_path(paths: list[AccessPathCost]) -> AccessPathCost:
    """The minimum-cost candidate."""
    return min(paths, key=lambda c: c.cost)


def smooth_scan_estimate(table: Table, config: EngineConfig,
                         profile: DiskProfile, column: str,
                         selectivity: float) -> float:
    """Smooth Scan's analytic worst-case cost at ``selectivity``.

    The planner's smooth decisions deliberately carry ``NaN`` cost
    (smooth needs no estimate to be safe); admission pricing and
    exchange modeling substitute this bound where a number is needed.
    """
    p = params_for(table, config, profile, column, selectivity)
    return formulas.smooth_scan_cost(p)


def exchange_merge_cost(total_rows: int, profile: DiskProfile,
                        exchange_ms: float) -> float:
    """Coordinator merge CPU in I/O units: one charge per merged row.

    This is the *serial* fraction of a shard-parallel plan — it does
    not shrink with the shard count, which is why measured speedup
    stays below N (Amdahl's law, quantified by the shard-scaling
    experiment).
    """
    return total_rows * exchange_ms / profile.ms_per_unit


def exchange_cost(shard_costs: list[float], merge_cost: float) -> float:
    """Completion-time estimate of an exchange over overlapped shards.

    Shards progress concurrently, so the parallel fraction completes
    with the most expensive shard; the merge is serial on top.
    """
    return max(shard_costs) + merge_cost


def hash_join_cost(build_card: int, probe_card: int,
                   profile: DiskProfile, hash_ms: float) -> float:
    """Hash-join CPU converted into I/O units (both sides hashed once)."""
    return (build_card + probe_card) * hash_ms / profile.ms_per_unit


def index_size_bytes(table: Table, config: EngineConfig,
                     column: str) -> int:
    """Estimated on-disk size of a B+-tree on ``column``.

    Keys plus 20% pointer overhead (Eq. (5)'s assumption) plus TIDs.
    """
    col = table.schema.columns[table.schema.index_of(column)]
    entry = math.ceil(col.byte_size * 1.2) + 8  # key + pointer + TID
    return table.row_count * entry

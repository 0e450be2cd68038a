"""Access-path selection — the decision Smooth Scan makes obsolete.

Given a predicate and (possibly stale) statistics, the planner estimates a
selectivity, costs every viable access path with the Section V formulas,
and picks the cheapest — a faithful miniature of the tipping-point
decision described in the paper's introduction.  When ``enable_smooth`` is
set the planner simply always chooses Smooth Scan ("the optimizer can
always choose a Smooth Scan", §IV-B), which is how the PostgreSQL-with-
Smooth-Scan configurations of Figures 4–10 are produced.

Two entry points:

* :meth:`Planner.plan_scan` — one table, one predicate, one access path
  (the original miniature, used by the hand-built experiment plans).
* :meth:`Planner.plan_query` — lower a whole logical
  :class:`~repro.optimizer.logical.QuerySpec` (joins, aggregation,
  ordering, projection, limit) into a physical operator tree, returning a
  :class:`PlannedQuery` whose node tree records every decision plus
  estimated and, after execution, actual cardinalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.policy import ElasticPolicy, MorphPolicy
from repro.core.smooth_scan import SmoothScan
from repro.core.trigger import EagerTrigger, Trigger
from repro.database import Database
from repro.errors import PlanningError
from repro.exec.aggregates import HashAggregate
from repro.exec.expressions import (
    And,
    KeyRange,
    Predicate,
    TruePredicate,
    conjunction,
    extract_range,
)
from repro.exec.iterator import Operator
from repro.exec.joins import HashJoin, IndexNestedLoopJoin
from repro.exec.misc import Filter, Limit, MapProject, Project, RowCounter
from repro.exec.scans import FullTableScan, IndexScan, SortScan
from repro.exec.sort import Sort
from repro.optimizer import cardinality as card_est
from repro.optimizer import costing
from repro.optimizer.logical import JoinSpec, QuerySpec
from repro.optimizer.statistics import StatisticsCatalog
from repro.storage.table import Table

#: Paths ``PlannerOptions.force_path`` accepts (shared with the SQL
#: binder's ``force_path(...)`` hint validation).
FORCEABLE_PATHS = ("full", "index", "sort", "smooth")


@dataclass
class PlannerOptions:
    """Knobs controlling which paths the planner may pick."""

    enable_index: bool = True
    enable_sort_scan: bool = True
    enable_smooth: bool = False
    #: Allow index-nested-loop joins (off reproduces hash-join-only plans).
    enable_inlj: bool = True
    #: Bypass costing and build this access path (``full``/``index``/
    #: ``sort``/``smooth``) for the *base table's* scan — how the
    #: experiment sweeps pin each curve of Figure 5 through the
    #: declarative API.  Overrides the ``enable_*`` flags; refuses only
    #: when the path is unbuildable (no usable index).  Join inner
    #: sides stay cost-based (they see only the join key, where a
    #: forced range path rarely applies); ``full`` additionally
    #: disables INLJ and forces inner scans sequential, so the whole
    #: plan is scans + hash joins.
    force_path: str | None = None
    #: Factory hooks so experiments can plan with specific variants.
    smooth_policy: MorphPolicy | None = None
    smooth_trigger: Trigger | None = None
    #: Produce shard-parallel (Exchange) plans for scan-only queries on
    #: tables with a registered shard set.  Off, a partitioned table
    #: still plans serially against the parent — how the serving front
    #: keeps sessions serial and applies the split itself at admission.
    #: A ``force_path`` always plans serially (forced sweeps pin exact
    #: single-path plans).
    shard_parallel: bool = True

    def __post_init__(self) -> None:
        if self.force_path is not None \
                and self.force_path not in FORCEABLE_PATHS:
            raise PlanningError(
                f"force_path must be one of {FORCEABLE_PATHS}, "
                f"got {self.force_path!r}"
            )


@dataclass
class PlanDecision:
    """What the planner decided and why (for experiment reporting)."""

    path: str
    column: str | None
    estimated_selectivity: float
    estimated_cardinality: int
    estimated_cost: float
    alternatives: dict[str, float] = field(default_factory=dict)
    #: For per-shard decisions under an Exchange: the shard table this
    #: decision covers (``None`` for ordinary, unsharded decisions).
    #: Admission pricing sums only unsharded decisions — the exchange
    #: decision prices its whole subtree.
    shard: str | None = None


# -- plan recipes (cached-plan replay) ---------------------------------------

@dataclass(frozen=True)
class AccessPin:
    """One frozen access-path choice: which path, anchored on which
    indexed column (``None`` when no index opportunity was used)."""

    path: str
    column: str | None = None


@dataclass(frozen=True)
class JoinPin:
    """One frozen join lowering: join order is the pin sequence itself;
    ``inner`` records the inner side's access pin for hash joins."""

    table: str
    method: str                   # "inlj" | "hash"
    inner: AccessPin | None = None


@dataclass(frozen=True)
class PlanRecipe:
    """Every decision a plan embodies, minus the estimates behind it.

    A recipe is what the plan cache stores: replaying it through
    :meth:`Planner.plan_query` rebuilds the *same plan shape* for a new
    parameter binding without re-running access-path or join-method
    selection — exactly how a prepared statement's cached plan goes
    stale as its bind parameters drift (the scenario Smooth Scan's
    statistics-oblivious operators are built to survive).
    """

    base: AccessPin
    joins: tuple[JoinPin, ...] = ()


@dataclass
class PlanNode:
    """One node of a planned query tree, instrumented for explain().

    ``operator`` is the :class:`~repro.exec.misc.RowCounter` wrapping the
    node's physical operator, so after execution ``actual_rows`` reports
    the cardinality that really flowed through.
    """

    operator: RowCounter
    label: str
    est_rows: int
    est_cost: float | None = None
    decision: PlanDecision | None = None
    children: tuple["PlanNode", ...] = ()

    @property
    def actual_rows(self) -> int | None:
        """Rows produced by the last execution (None before any run)."""
        return self.operator.rows_seen


@dataclass
class PlannedQuery:
    """A lowered logical query: physical root + the decision trail.

    ``recipe`` freezes the decisions this plan embodies; the plan cache
    stores it so later executions (same statement, new parameters) can
    replay the shape without re-planning.
    """

    spec: QuerySpec
    root: Operator
    tree: PlanNode
    recipe: "PlanRecipe | None" = None

    def nodes(self):
        """Yield every PlanNode in preorder (the traversal all the
        accessors below share)."""
        stack = [self.tree]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def decisions(self) -> list[PlanDecision]:
        """Every access-path/join decision, in plan-tree preorder."""
        return [n.decision for n in self.nodes() if n.decision is not None]

    def operators(self):
        """Yield the bare physical operators (counters unwrapped)."""
        return (n.operator.child for n in self.nodes())

    def reset_counters(self) -> None:
        """Clear every node's actual-row count before a re-execution.

        A node never pulled during a run would otherwise keep the
        previous run's count; after reset such nodes render ``act=?``.
        ``Database.execute`` calls this automatically.
        """
        for node in self.nodes():
            node.operator.rows_seen = None

    def render(self) -> str:
        """The explain() tree: estimated vs. actual rows per node."""
        lines: list[str] = []

        def walk(node: PlanNode, depth: int) -> None:
            indent = "  " * depth
            actual = node.actual_rows
            bits = [
                f"rows est={node.est_rows} "
                f"act={'?' if actual is None else actual}"
            ]
            if node.est_cost is not None and not math.isnan(node.est_cost):
                bits.append(f"cost={node.est_cost:.0f}")
            lines.append(f"{indent}-> {node.label}  [{', '.join(bits)}]")
            d = node.decision
            if d is not None and d.alternatives:
                alts = ", ".join(
                    f"{p}={c:.0f}" for p, c in sorted(d.alternatives.items())
                )
                lines.append(f"{indent}     ({d.path} chosen of: {alts})")
            for child in node.children:
                walk(child, depth + 1)

        walk(self.tree, 0)
        return "\n".join(lines)


class Planner:
    """Cost-based access-path selection over one database."""

    def __init__(self, db: Database, catalog: StatisticsCatalog,
                 options: PlannerOptions | None = None):
        self.db = db
        self.catalog = catalog
        self.options = options or PlannerOptions()

    # -- public API ----------------------------------------------------------

    def plan_scan(self, table_name: str, predicate: Predicate | None = None,
                  order_by: str | None = None
                  ) -> tuple[Operator, PlanDecision]:
        """Build the chosen access path for one table scan.

        Returns the operator tree (with any posterior sort already placed)
        and the decision record.
        """
        op, decision, ordered = self._plan_access(
            table_name, predicate, order_by,
            force=self.options.force_path,
        )
        if order_by is not None and not ordered:
            op = Sort(op, [order_by])
        return op, decision

    def plan_query(self, spec: QuerySpec,
                   recipe: PlanRecipe | None = None) -> PlannedQuery:
        """Lower a logical query into an instrumented physical plan.

        Per-table access paths honor the planner's options exactly as
        :meth:`plan_scan` does (a single-table spec lowers to the
        identical operator tree); join order is chosen greedily by
        estimated cardinality when all joins are inner; join methods are
        costed INLJ-vs-hash with the same formula the TPC-H plan builder
        uses.  Every node is wrapped in a cost-free
        :class:`~repro.exec.misc.RowCounter` so the returned
        :class:`PlannedQuery` can report actual cardinalities.

        With ``recipe`` (from a plan-cache hit) decision points are
        *replayed* instead of chosen: the recorded access paths, join
        order and join methods are rebuilt around the spec's current
        predicate values.  Estimates are still recomputed — they feed
        ``explain()`` — but never steer; an inconsistent pin (a recipe
        from a different statement shape) silently falls back to fresh
        cost-based choice for the remaining decisions.
        """
        from repro.optimizer.params import require_bound
        require_bound(spec)
        schemas = self._referenced_schemas(spec)
        pushed, cross = self._split_predicate(spec, schemas)

        # An order hint flows into scan planning only when the scan IS the
        # query (no joins/aggregation/maps): then the access path may
        # satisfy ORDER BY for free, exactly as plan_scan decides it.
        scan_order = None
        if (not spec.joins and not spec.has_aggregation and not spec.maps
                and len(spec.order_by) == 1 and spec.order_by[0].ascending):
            scan_order = spec.order_by[0].column

        sharded = None
        if recipe is None or recipe.base.path == "exchange":
            # A fresh plan shards when the catalog is partitioned (and
            # options allow); an "exchange" pin replays by re-sharding
            # fresh — per-shard paths are re-chosen against the shards'
            # own (fresh) statistics, which is the cacheable part.
            sharded = self._plan_sharded_access(
                spec, pushed[spec.table], scan_order
            )
        if sharded is not None:
            node, decision = sharded
            ordered = False
        else:
            op, decision, ordered = self._plan_access(
                spec.table, pushed[spec.table], scan_order,
                force=self.options.force_path,
                pin=recipe.base if recipe is not None else None,
            )
            node = self._node(op, est_rows=decision.estimated_cardinality,
                              est_cost=decision.estimated_cost,
                              decision=decision)
        est_rows = decision.estimated_cardinality
        join_pins: list[JoinPin] = []

        node, est_rows, cross = self._plan_joins(
            spec, node, est_rows, pushed, cross,
            recipe=recipe, pins_out=join_pins,
        )
        if cross:
            self._raise_unresolvable(spec, node, cross)
        node = self._restore_declared_layout(spec, node, est_rows)

        if spec.has_aggregation:
            agg = HashAggregate(node.operator, list(spec.group_by),
                                list(spec.aggregates))
            est_rows = self._estimate_groups(spec, est_rows)
            node = self._node(agg, est_rows=est_rows, children=(node,))

        for m in spec.maps:
            op = MapProject(node.operator, m.schema, m.fn)
            node = self._node(op, est_rows=est_rows, children=(node,))

        if spec.order_by and not (ordered and scan_order is not None):
            keys = [(o.column, o.ascending) for o in spec.order_by]
            sort = Sort(node.operator, keys)
            node = self._node(sort, est_rows=est_rows, children=(node,))

        if spec.select:
            proj = Project(node.operator, list(spec.select))
            node = self._node(proj, est_rows=est_rows, children=(node,))

        if spec.limit is not None:
            limit = Limit(node.operator, spec.limit)
            est_rows = min(est_rows, spec.limit)
            node = self._node(limit, est_rows=est_rows, children=(node,))

        built = PlanRecipe(
            base=AccessPin(decision.path, decision.column),
            joins=tuple(join_pins),
        )
        return PlannedQuery(spec=spec, root=node.operator, tree=node,
                            recipe=built)

    def join_method_costs(self, est_outer_rows: int, inner_table: str,
                          inner_key: str) -> dict[str, float]:
        """Estimated INLJ and hash-join costs for one equi-join.

        The INLJ side is a descent plus the expected matching fetches per
        outer row; the hash side is a full inner scan plus hashing both
        inputs.  (The same comparison the TPC-H plan builder applies —
        with a wrong outer estimate this is what turns Q12 into a
        disaster.)  ``inlj`` is ``inf`` when no usable index exists.
        """
        inner = self.db.table(inner_table)
        profile = self.db.profile
        costs = {
            "hash": inner.num_pages * profile.seq_cost
            + costing.hash_join_cost(inner.row_count, est_outer_rows,
                                     profile, self.db.config.cpu.hash_op),
            "inlj": float("inf"),
        }
        if inner.has_index(inner_key):
            # Per probe, a descent plus the matching fetches, all random,
            # from the *actual* B+-tree geometry (height, entry count)
            # rather than the analytic Eq. (7) estimate, since the index
            # exists here.
            index = inner.index_on(inner_key)
            matches = max(1.0, inner.row_count / max(1, len(index)))
            costs["inlj"] = (
                est_outer_rows * (index.height + matches) * profile.rand_cost
            )
        return costs

    # -- scan planning -------------------------------------------------------

    def _plan_access(self, table_name: str,
                     predicate: Predicate | None,
                     order_by: str | None,
                     force: str | None = None,
                     pin: AccessPin | None = None
                     ) -> tuple[Operator, PlanDecision, bool]:
        """Choose and build one access path (no posterior sort).

        Returns ``(operator, decision, ordered)`` where ``ordered`` says
        the output already satisfies an ascending ``order_by``.
        ``force`` pins the path for this scan; callers decide whether
        ``options.force_path`` applies (base-table scans) or not (join
        inner sides).  ``pin`` replays a cached decision: the recorded
        path *and* anchor column are rebuilt without choosing — the
        plan-cache contract that a prepared statement's second execution
        uses the first execution's plan, estimates be damned.  A force
        wins over a pin (a forced plan re-forces identically anyway).
        """
        table = self.db.table(table_name)
        predicate = predicate or TruePredicate()
        if force is None and pin is not None \
                and not self._pin_applies(table, pin):
            pin = None  # stale/foreign pin: fall back to fresh choice
        if force is None and pin is not None:
            column, key_range, residual = self._pinned_opportunity(
                predicate, order_by, pin
            )
        else:
            column, key_range, residual = self._best_index_opportunity(
                table, predicate, order_by
            )
        selectivity = card_est.estimate_selectivity(
            self.catalog, table_name, predicate
        )
        est_card = card_est.estimate_cardinality(
            self.catalog, table_name, predicate,
            fallback_rows=table.row_count, selectivity=selectivity,
        )

        pinned_path = pin.path if force is None and pin is not None \
            else None
        if force == "smooth" or pinned_path == "smooth" or (
                force is None and pinned_path is None
                and self.options.enable_smooth and column is not None):
            return self._smooth_plan(
                table, column, key_range, residual, order_by,
                selectivity, est_card,
            )

        all_paths = costing.candidate_paths(
            table, self.db.config, self.db.profile,
            column, selectivity,
            require_order=order_by is not None,
            enable_smooth=False,
            index_satisfies_order=order_by == column,
        )
        paths = [
            p for p in all_paths
            if (p.path != "index" or self.options.enable_index)
            and (p.path != "sort" or self.options.enable_sort_scan)
        ]
        if force is not None:
            # An explicit force overrides the enable_* knobs; only a
            # genuinely unbuildable path (no usable index) refuses.
            forced = [p for p in all_paths if p.path == force]
            if not forced:
                raise PlanningError(
                    f"cannot force path {force!r} on {table_name!r}: "
                    "no usable index for the predicate"
                )
            choice = forced[0]
        elif pinned_path is not None:
            # Replay: same candidate set and costs as a fresh plan (the
            # decision record — and explain() — must not depend on
            # whether the plan came from the cache), but the recorded
            # path is taken regardless of today's cheapest.
            replayed = [p for p in paths if p.path == pinned_path]
            choice = replayed[0] if replayed else costing.cheapest_path(
                paths
            )
        else:
            choice = costing.cheapest_path(paths)
        op = self._build_scan(
            choice.path, table, column, key_range, residual, predicate
        )
        # Under a force the enable_* filter didn't constrain the choice,
        # so report every costed path (the forced one included).
        compared = all_paths if force is not None else paths
        decision = PlanDecision(
            path=choice.path,
            column=column,
            estimated_selectivity=selectivity,
            estimated_cardinality=est_card,
            estimated_cost=choice.cost,
            alternatives={p.path: p.cost for p in compared},
        )
        ordered = choice.path == "index" and order_by == column
        return op, decision, ordered

    def _plan_sharded_access(self, spec: QuerySpec,
                             predicate: Predicate | None,
                             scan_order: str | None
                             ) -> tuple[PlanNode, PlanDecision] | None:
        """Lower the base scan as an Exchange over per-shard paths.

        Applies only to scan-dominated queries (no joins, aggregation,
        maps or ORDER BY — everything above the exchange must be
        charge-free so per-shard ledgers still sum to the runtime
        totals, and a posterior Sort charges) on tables
        with a registered shard set, when ``options.shard_parallel``
        allows and no path is forced.  Each shard's access path is
        chosen independently against that shard's own statistics and
        recorded as a shard-tagged :class:`PlanDecision`; the exchange
        decision on top prices the whole subtree (max shard cost +
        serial merge) with the serial union as its reported
        alternative.  Returns ``None`` when sharding does not apply —
        the caller falls through to ordinary serial planning.
        """
        del scan_order  # exchange output is unordered
        opts = self.options
        if (not opts.shard_parallel or opts.force_path is not None
                or spec.joins or spec.has_aggregation or spec.maps
                or spec.order_by):
            return None
        shard_set = self.db.shard_set(spec.table)
        if shard_set is None or shard_set.num_shards < 2:
            return None
        from repro.exec.exchange import Exchange, ShardedScan
        shard_nodes: list[PlanNode] = []
        shard_costs: list[float] = []
        total_card = 0
        for i, shard in enumerate(shard_set.shards):
            op, shard_decision, _ordered = self._plan_access(
                shard.name, predicate, None
            )
            shard_decision.shard = shard.name
            inner = self._node(
                op, est_rows=shard_decision.estimated_cardinality,
                est_cost=shard_decision.estimated_cost,
                decision=shard_decision,
            )
            wrapped = ShardedScan(inner.operator, shard.name, i)
            shard_nodes.append(self._node(
                wrapped, est_rows=shard_decision.estimated_cardinality,
                children=(inner,),
            ))
            total_card += shard_decision.estimated_cardinality
            shard_costs.append(
                self._modeled_shard_cost(shard, shard_decision)
            )
        exchange = Exchange(
            [node.operator for node in shard_nodes],
            table_name=spec.table, scheme=shard_set.scheme,
        )
        merge = costing.exchange_merge_cost(
            total_card, self.db.profile, self.db.config.cpu.exchange_row
        )
        parallel_cost = costing.exchange_cost(shard_costs, merge)
        serial_cost = sum(shard_costs) + merge
        # Going wide must *win on the model*: a point lookup's index
        # descent does not parallelize (every shard repeats it), so the
        # serial plan over the unsharded table stays in place unless
        # the exchange's completion-time estimate strictly beats it.
        _op, serial_decision, _ordered = self._plan_access(
            spec.table, predicate, None
        )
        serial_access_cost = self._modeled_shard_cost(
            self.db.table(spec.table), serial_decision
        )
        if parallel_cost >= serial_access_cost:
            return None
        decision = PlanDecision(
            path="exchange",
            column=shard_set.column,
            estimated_selectivity=card_est.estimate_selectivity(
                self.catalog, spec.table, predicate or TruePredicate()
            ),
            estimated_cardinality=total_card,
            estimated_cost=parallel_cost,
            alternatives={"exchange": parallel_cost,
                          "serial": serial_access_cost,
                          "serial-union": serial_cost},
        )
        node = self._node(exchange, est_rows=total_card,
                          est_cost=parallel_cost, decision=decision,
                          children=tuple(shard_nodes))
        return node, decision

    def _modeled_shard_cost(self, shard: Table,
                            decision: PlanDecision) -> float:
        """A shard decision's cost with smooth's NaN made numeric.

        Smooth decisions carry ``NaN`` (smooth needs no estimate to be
        safe), but the exchange's completion-time model needs numbers;
        substitute the analytic smooth worst-case bound.
        """
        if not math.isnan(decision.estimated_cost):
            return decision.estimated_cost
        return costing.smooth_scan_estimate(
            shard, self.db.config, self.db.profile,
            decision.column or shard.schema.column_names[0],
            decision.estimated_selectivity,
        )

    def _pin_applies(self, table: Table, pin: AccessPin) -> bool:
        """A pin is usable when its anchor index still exists."""
        return pin.column is None or table.has_index(pin.column)

    def _pinned_opportunity(self, predicate: Predicate,
                            order_by: str | None, pin: AccessPin
                            ) -> tuple[str | None, KeyRange | None,
                                       Predicate]:
        """The (column, range, residual) triple for a replayed pin.

        Mirrors :meth:`_best_index_opportunity` with the column decided:
        extract the range the predicate puts on the pinned column, or
        fall back to a full sweep (the order-only case).
        """
        if pin.column is None:
            return None, None, predicate
        key_range, residual = extract_range(predicate, pin.column)
        if key_range is None:
            return pin.column, KeyRange.all(), predicate
        return pin.column, key_range, residual

    def _best_index_opportunity(self, table: Table, predicate: Predicate,
                                order_by: str | None
                                ) -> tuple[str | None, KeyRange | None,
                                           Predicate]:
        """Pick the indexed column that serves the predicate best.

        Preference order: the tightest estimated range; an index matching
        the requested order when no range exists and it has an entry for
        every row (a NULL key has none).
        """
        best: tuple[float, str, KeyRange, Predicate] | None = None
        for column in table.indexes:
            rng, residual = extract_range(predicate, column)
            if rng is None:
                continue
            sel = card_est.estimate_selectivity(
                self.catalog, table.name, rng.predicate(column),
            )
            if best is None or sel < best[0]:
                best = (sel, column, rng, residual)
        if best is not None:
            return best[1], best[2], best[3]
        if order_by is not None and table.has_index(order_by) \
                and len(table.index_on(order_by)) == table.row_count:
            return order_by, KeyRange.all(), predicate
        return None, None, predicate

    def _smooth_plan(self, table: Table, column: str | None,
                     key_range: KeyRange | None, residual: Predicate,
                     order_by: str | None, selectivity: float,
                     est_card: int) -> tuple[Operator, PlanDecision, bool]:
        if column is None:
            raise PlanningError(
                f"Smooth Scan on {table.name!r} needs an index usable by "
                "the predicate (or matching the requested order)"
            )
        ordered = order_by == column
        op: Operator = SmoothScan(
            table, column,
            key_range=key_range,
            residual=residual,
            policy=self.options.smooth_policy or ElasticPolicy(),
            trigger=self.options.smooth_trigger or EagerTrigger(),
            ordered=ordered,
        )
        decision = PlanDecision(
            path="smooth",
            column=column,
            estimated_selectivity=selectivity,
            estimated_cardinality=est_card,
            estimated_cost=float("nan"),  # smooth needs no estimate
        )
        return op, decision, ordered

    def _build_scan(self, path: str, table: Table, column: str | None,
                    key_range: KeyRange | None, residual: Predicate,
                    predicate: Predicate) -> Operator:
        if path == "full" or column is None:
            return FullTableScan(table, predicate)
        if path == "index":
            return IndexScan(table, column, key_range, residual)
        if path == "sort":
            return SortScan(table, column, key_range, residual)
        raise PlanningError(f"unknown access path {path!r}")

    # -- query lowering ------------------------------------------------------

    def _node(self, op: Operator, est_rows: int,
              est_cost: float | None = None,
              decision: PlanDecision | None = None,
              children: tuple[PlanNode, ...] = ()) -> PlanNode:
        """Wrap an operator in a counter and record it as a plan node."""
        counter = RowCounter(op)
        return PlanNode(
            operator=counter, label=op.name(), est_rows=max(0, est_rows),
            est_cost=est_cost, decision=decision, children=children,
        )

    def _referenced_schemas(self, spec: QuerySpec) -> list[tuple[str, object]]:
        """(name, schema) per referenced table; rejects duplicates."""
        names = spec.table_names
        if len(set(names)) != len(names):
            raise PlanningError(
                f"query references a table twice: {names} (self-joins "
                "need distinct column names and are not supported here)"
            )
        return [(name, self.db.table(name).schema) for name in names]

    def _split_predicate(self, spec: QuerySpec,
                         schemas: list[tuple[str, object]]
                         ) -> tuple[dict[str, Predicate], list[Predicate]]:
        """Push each top-level conjunct to the one table covering it.

        Conjuncts spanning several tables become post-join residuals,
        applied as soon as every referenced column is in scope.  Pushing
        below a join preserves WHERE semantics for inner joins and *is*
        the semantics for semi/anti joins (EXISTS with the predicate);
        below the inner side of a left join it would turn dropped
        rows into null-padded ones, so those conjuncts stay residual and
        are evaluated post-join, where a NULL pad reads as UNKNOWN and
        the WHERE drops the row, as SQL's three-valued logic does.
        """
        conjuncts = _flatten_conjuncts(spec.predicate)
        pushable = {spec.table} | {
            j.table for j in spec.joins if j.how != "left"
        }
        per_table: dict[str, list[Predicate]] = {n: [] for n, _ in schemas}
        cross: list[Predicate] = []
        for part in conjuncts:
            if isinstance(part, TruePredicate):
                continue
            cols = part.columns()
            if not cols:
                # References no columns (e.g. a constant predicate):
                # evaluable anywhere, cheapest at the base scan.
                per_table[spec.table].append(part)
                continue
            owners = [
                name for name, schema in schemas
                if all(schema.has_column(c) for c in cols)
            ]
            if len(owners) > 1:
                # Shared column names are only reachable through a
                # semi/anti join (whose output hides the inner side), so
                # the reference resolves to the one *visible* owner; two
                # visible owners would be genuinely ambiguous.
                visible = [
                    o for o in owners
                    if o == spec.table or any(
                        j.table == o and j.how in ("inner", "left")
                        for j in spec.joins
                    )
                ]
                if len(visible) != 1:
                    raise PlanningError(
                        f"predicate {part!r} is ambiguous: its columns "
                        f"exist in tables {owners}; rename columns to "
                        "disambiguate"
                    )
                owners = visible
            if owners and owners[0] in pushable:
                per_table[owners[0]].append(part)
            else:
                cross.append(part)
        return (
            {name: conjunction(parts) for name, parts in per_table.items()},
            cross,
        )

    def _plan_joins(self, spec: QuerySpec, node: PlanNode, est_rows: int,
                    pushed: dict[str, Predicate], cross: list[Predicate],
                    recipe: PlanRecipe | None = None,
                    pins_out: list[JoinPin] | None = None
                    ) -> tuple[PlanNode, int, list[Predicate]]:
        """Order and lower every join, interleaving cross-table filters.

        With ``recipe`` the recorded join order and methods are replayed;
        a pin that no longer matches the spec (different join set) drops
        the rest of the recipe and resumes fresh choice.  ``pins_out``
        collects the decisions actually taken, for the built plan's own
        recipe.
        """
        remaining = list(spec.joins)
        reorderable = all(j.how == "inner" for j in remaining)
        pin_queue = list(recipe.joins) if recipe is not None else []
        while remaining:
            schema = node.operator.schema
            candidates = [
                j for j in remaining if schema.has_column(j.left_key)
            ]
            if not candidates:
                keys = [j.left_key for j in remaining]
                raise PlanningError(
                    f"cannot resolve join keys {keys} from the tables "
                    "joined so far — check join order and key names"
                )
            join = None
            join_pin: JoinPin | None = None
            if pin_queue:
                join_pin = pin_queue[0]
                join = next((j for j in candidates
                             if j.table == join_pin.table), None)
                if join is None:  # recipe doesn't match this spec
                    pin_queue, join_pin = [], None
                else:
                    pin_queue.pop(0)
            if join is None:
                if reorderable:
                    join = min(
                        candidates,
                        key=lambda j: self._estimate_join_card(
                            est_rows, j, pushed[j.table]
                        ),
                    )
                else:
                    join = candidates[0]
            remaining.remove(join)
            node, est_rows = self._plan_one_join(
                node, est_rows, join, pushed[join.table],
                pin=join_pin, pins_out=pins_out,
            )
            node, est_rows, cross = self._apply_ready_filters(
                spec, node, est_rows, cross
            )
        return node, est_rows, cross

    def _plan_one_join(self, outer: PlanNode, est_outer: int,
                       join: JoinSpec, inner_pred: Predicate,
                       pin: JoinPin | None = None,
                       pins_out: list[JoinPin] | None = None
                       ) -> tuple[PlanNode, int]:
        """Lower one join, choosing INLJ vs. hash by estimated cost.

        ``pin`` replays a recorded method choice (and the hash inner
        side's access pin); costs are still computed so the decision
        record is identical to a fresh plan's.
        """
        est_card = self._estimate_join_card(est_outer, join, inner_pred)
        costs = self.join_method_costs(est_outer, join.table, join.right_key)
        inlj_legal = (
            join.how == "inner"
            and self.options.enable_inlj
            and self.options.force_path != "full"
            and costs["inlj"] != float("inf")
        )
        if pin is not None:
            use_inlj = pin.method == "inlj" and inlj_legal
        else:
            use_inlj = inlj_legal and costs["inlj"] < costs["hash"]
        if use_inlj:
            inner = self.db.table(join.table)
            residual = None if isinstance(inner_pred, TruePredicate) \
                else inner_pred
            op: Operator = IndexNestedLoopJoin(
                outer.operator, inner, join.right_key, join.left_key,
                residual=residual,
                inner_access="smooth" if self.options.enable_smooth
                else "classic",
            )
            decision = PlanDecision(
                path="inlj", column=join.right_key,
                estimated_selectivity=1.0,
                estimated_cardinality=est_card,
                estimated_cost=costs["inlj"], alternatives=costs,
            )
            if pins_out is not None:
                pins_out.append(JoinPin(table=join.table, method="inlj"))
            return self._node(op, est_rows=est_card,
                              est_cost=costs["inlj"], decision=decision,
                              children=(outer,)), est_card
        # Inner sides are cost-based; forcing "full" is the exception so
        # the pinned-sequential experiment curve really is all-sequential.
        inner_op, inner_decision, _ = self._plan_access(
            join.table, inner_pred, None,
            force="full" if self.options.force_path == "full" else None,
            pin=pin.inner if pin is not None else None,
        )
        inner_node = self._node(
            inner_op, est_rows=inner_decision.estimated_cardinality,
            est_cost=inner_decision.estimated_cost, decision=inner_decision,
        )
        op = HashJoin(outer.operator, inner_node.operator,
                      [join.left_key], [join.right_key], join_type=join.how)
        decision = PlanDecision(
            path="hash", column=join.right_key,
            estimated_selectivity=1.0,
            estimated_cardinality=est_card,
            estimated_cost=costs["hash"], alternatives=costs,
        )
        if pins_out is not None:
            pins_out.append(JoinPin(
                table=join.table, method="hash",
                inner=AccessPin(inner_decision.path, inner_decision.column),
            ))
        node = self._node(op, est_rows=est_card, est_cost=costs["hash"],
                          decision=decision, children=(outer, inner_node))
        return node, est_card

    def _restore_declared_layout(self, spec: QuerySpec, node: PlanNode,
                                 est_rows: int) -> PlanNode:
        """Re-project to the declared column order after join reordering.

        Greedy join ordering concatenates outer+inner in *execution*
        order, which would make the output layout depend on catalog
        statistics; positional consumers (``rows[i]``, AggSpec/MapSpec
        value callables with precomputed positions) need the layout the
        spec declares.  The Project is cost-free and only added when the
        orders actually diverge.
        """
        declared = list(self.db.table(spec.table).schema.column_names)
        for join in spec.joins:
            if join.how in ("inner", "left"):
                declared += self.db.table(join.table).schema.column_names
        if list(node.operator.schema.column_names) == declared:
            return node
        proj = Project(node.operator, declared)
        return self._node(proj, est_rows=est_rows, children=(node,))

    def _raise_unresolvable(self, spec: QuerySpec, node: PlanNode,
                            cross: list[Predicate]) -> None:
        """Explain *why* leftover predicates cannot be evaluated."""
        schema = node.operator.schema
        missing = sorted(
            {c for p in cross for c in p.columns()
             if not schema.has_column(c)}
        )
        hidden = [
            c for c in missing
            if any(self.db.table(j.table).schema.has_column(c)
                   for j in spec.joins if j.how in ("semi", "anti"))
        ]
        if hidden:
            raise PlanningError(
                f"columns {hidden} belong to the inner side of a "
                "semi/anti join and are not visible after it; filter "
                "them with a pushable single-table predicate instead"
            )
        raise PlanningError(
            f"predicate references columns {missing} available in no "
            "referenced table"
        )

    def _apply_ready_filters(self, spec: QuerySpec, node: PlanNode,
                             est_rows: int, cross: list[Predicate]
                             ) -> tuple[PlanNode, int, list[Predicate]]:
        """Attach cross-table residuals whose columns are now in scope.

        Null-padded rows of a left join below may reach the filter: a
        residual that reads a pad is UNKNOWN there, and the filter keeps
        only TRUE rows.
        """
        schema = node.operator.schema
        ready = [
            p for p in cross
            if all(schema.has_column(c) for c in p.columns())
        ]
        if not ready:
            return node, est_rows, cross
        predicate = conjunction(ready)
        # Estimate each conjunct against the table owning its columns
        # (a left join's inner conjunct lands here with usable stats);
        # conjuncts genuinely spanning tables have no owner and fall to
        # the blind AVI defaults, the guesswork the paper studies (§I).
        sel = 1.0
        for part in ready:
            cols = part.columns()
            owner = next(
                (name for name in spec.table_names
                 if all(self.db.table(name).schema.has_column(c)
                        for c in cols)),
                spec.table,
            )
            sel *= card_est.estimate_selectivity(self.catalog, owner, part)
        est_rows = max(0, round(est_rows * sel))
        op = Filter(node.operator, predicate)
        node = self._node(op, est_rows=est_rows, children=(node,))
        return node, est_rows, [p for p in cross if p not in ready]

    # -- estimation helpers --------------------------------------------------

    def _estimate_join_card(self, est_outer: int, join: JoinSpec,
                            inner_pred: Predicate) -> int:
        """|outer ⋈ inner| under uniform key matching.

        ``est_outer × est_inner / ndv(inner_key)`` — with no statistics
        the inner key is assumed unique (the FK→PK shape every TPC-H join
        here has), reducing to ``est_outer × selectivity(inner)``.
        """
        inner = self.db.table(join.table)
        est_inner = card_est.estimate_cardinality(
            self.catalog, join.table, inner_pred,
            fallback_rows=inner.row_count,
        )
        if join.how in ("semi", "anti", "left"):
            return est_outer
        stats = self.catalog.column_stats(join.table, join.right_key)
        ndv = stats.ndv if stats is not None and stats.ndv > 0 \
            else max(1, inner.row_count)
        return max(0, round(est_outer * est_inner / ndv))

    def _estimate_groups(self, spec: QuerySpec, est_input: int) -> int:
        """Estimated group count: product of group-key NDVs, capped."""
        if not spec.group_by:
            return 1
        groups = 1
        for column in spec.group_by:
            ndv = None
            for name in spec.table_names:
                stats = self.catalog.column_stats(name, column)
                if stats is not None and stats.ndv > 0:
                    ndv = stats.ndv
                    break
            if ndv is None:
                return max(1, est_input)  # no statistics: no idea, cap
            groups *= ndv
            if groups >= est_input:
                return max(1, est_input)
        return max(1, min(groups, est_input))


def _flatten_conjuncts(predicate: Predicate) -> list[Predicate]:
    """Expand arbitrarily nested conjunctions into a flat conjunct list.

    ``conjunction()`` flattens as it builds, but user-constructed
    ``And(And(...), ...)`` trees must still split correctly — per-table
    pushdown only sees top-level conjuncts.
    """
    if isinstance(predicate, And):
        out: list[Predicate] = []
        for part in predicate.parts:
            out.extend(_flatten_conjuncts(part))
        return out
    return [predicate]

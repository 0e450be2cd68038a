"""Declarative query API: fluent builder → plan_query → operators.

The load-bearing guarantees: lowering a Query through the planner yields
byte-identical rows and identical simulated costs to the equivalent
hand-built operator tree (single-table, across the policy×trigger grid
and all four forced access paths), and explain() reports estimated vs.
actual cardinalities per plan node.
"""

import random

import pytest

from repro.core.policy import (
    ElasticPolicy,
    GreedyPolicy,
    SelectivityIncreasePolicy,
)
from repro.core.smooth_scan import SmoothScan
from repro.core.trigger import (
    EagerTrigger,
    OptimizerDrivenTrigger,
    SLADrivenTrigger,
)
from repro.database import Database
from repro.errors import PlanningError, StorageError
from repro.exec.aggregates import AggSpec, HashAggregate
from repro.exec.expressions import (
    Between,
    ColumnComparison,
    CompareOp,
    Comparison,
)
from repro.exec.joins import HashJoin
from repro.exec.scans import FullTableScan
from repro.exec.stats import measure
from repro.experiments.common import access_path_plan
from repro.optimizer.planner import PlannerOptions
from repro.storage.types import Schema

POLICIES = {
    "greedy": GreedyPolicy,
    "si": SelectivityIncreasePolicy,
    "elastic": ElasticPolicy,
}
TRIGGERS = {
    "eager": lambda est: EagerTrigger(),
    "optimizer": lambda est: OptimizerDrivenTrigger(est),
    "sla": lambda est: SLADrivenTrigger(max(1, est // 2)),
}


def _same_measurement(a, b) -> bool:
    return (a.io_ms == b.io_ms and a.cpu_ms == b.cpu_ms
            and a.disk.requests == b.disk.requests
            and a.disk.bytes_read == b.disk.bytes_read)


@pytest.fixture(scope="module")
def micro():
    from repro.workloads.micro import build_micro_table
    db = Database()
    table = build_micro_table(db, num_tuples=12_000, seed=7)
    return db, table


# -- acceptance: single-table identity ---------------------------------------

@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("trigger_name", sorted(TRIGGERS))
@pytest.mark.parametrize("ordered", [False, True])
def test_smooth_grid_identity(micro, policy_name, trigger_name, ordered):
    """Query→plan_query→SmoothScan ≡ the hand-built operator, for every
    policy×trigger×ordered combination: same rows, same simulated costs."""
    db, table = micro
    sel = 0.2
    est = int(sel * table.row_count)
    from repro.workloads.micro import selectivity_predicate

    hand = access_path_plan(
        "smooth", table, sel, order_by=ordered,
        policy=POLICIES[policy_name](),
        trigger=TRIGGERS[trigger_name](est),
    )
    expected = measure(db, hand)

    query = db.query("micro").where(selectivity_predicate(sel))
    if ordered:
        query = query.order_by("c2")
    result = db.execute(query, options=PlannerOptions(
        force_path="smooth",
        smooth_policy=POLICIES[policy_name](),
        smooth_trigger=TRIGGERS[trigger_name](est),
    ))
    assert result.rows == expected.rows  # byte-identical
    assert _same_measurement(result, expected)
    assert result.decisions[0].path == "smooth"


@pytest.mark.parametrize("path", ["full", "index", "sort", "smooth"])
@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("sel", [0.0, 0.01, 0.5])
def test_forced_path_identity(micro, path, ordered, sel):
    """Each forced access path lowers to the identical physical plan the
    experiments hand-build (rows and all simulated costs equal)."""
    db, table = micro
    from repro.workloads.micro import selectivity_predicate

    expected = measure(db, access_path_plan(path, table, sel,
                                            order_by=ordered))
    query = db.query("micro").where(selectivity_predicate(sel))
    if ordered:
        query = query.order_by("c2")
    result = db.execute(query, options=PlannerOptions(force_path=path))
    assert result.rows == expected.rows
    assert _same_measurement(result, expected)


def test_cost_based_plan_matches_plan_scan(micro):
    """Without forcing, plan_query on a bare scan mirrors plan_scan."""
    db, table = micro
    from repro.optimizer.planner import Planner
    pred = Between("c2", 0, 500)
    planner = Planner(db, db.catalog)
    op, decision = planner.plan_scan("micro", pred, order_by="c2")
    expected = measure(db, op)
    result = db.execute(db.query("micro").where(pred).order_by("c2"))
    assert result.rows == expected.rows
    assert _same_measurement(result, expected)
    assert result.decisions[0].path == decision.path


# -- acceptance: explain() on a join with aggregation ------------------------

@pytest.fixture(scope="module")
def sales_db():
    db = Database()
    rng = random.Random(31)
    db.load_table(
        "sales", Schema.of_ints(["s_id", "s_cust", "s_amount"]),
        [(i, rng.randrange(200), rng.randrange(1_000))
         for i in range(8_000)],
    )
    db.create_index("sales", "s_amount")
    db.load_table(
        "customers", Schema.of_ints(["c_id", "c_region"]),
        [(i, i % 11) for i in range(200)],
    )
    db.create_index("customers", "c_id")
    db.analyze()
    return db


def test_explain_two_table_join_with_aggregation(sales_db):
    db = sales_db
    query = (
        db.query("sales")
        .where(Comparison("s_amount", CompareOp.LT, 700))
        .join("customers", on=("s_cust", "c_id"))
        .group_by("c_region")
        .aggregate(("count", "*", "n"), ("sum", "s_amount", "total"))
        .order_by("c_region")
    )
    # Before execution the tree renders estimates with unknown actuals.
    pre = query.explain()
    assert "act=?" in pre and "rows est=" in pre
    result = db.execute(query)
    text = result.explain()
    assert "HashAggregate" in text
    assert "Join" in text  # hash or index-nested-loop
    assert "act=?" not in text  # every node saw its actual cardinality
    # The root's actual cardinality equals the produced row count.
    assert result.plan.tree.actual_rows == result.row_count == 11
    # Scan node records estimated rows and the costed alternatives.
    scan_decisions = [d for d in result.decisions
                     if d.path in ("full", "index", "sort", "smooth")]
    assert scan_decisions and scan_decisions[0].estimated_cardinality > 0


def test_join_rows_match_hand_built(sales_db):
    db = sales_db
    pred = Comparison("s_amount", CompareOp.LT, 700)
    hand = HashJoin(
        FullTableScan(db.table("sales"), pred),
        FullTableScan(db.table("customers")),
        ["s_cust"], ["c_id"],
    )
    expected = sorted(measure(db, hand).rows)
    result = db.execute(
        db.query("sales").where(pred).join("customers", on=("s_cust", "c_id"))
    )
    assert sorted(result.rows) == expected


def test_aggregate_rows_match_hand_built(sales_db):
    db = sales_db
    hand = HashAggregate(
        FullTableScan(db.table("sales")), ["s_cust"],
        [AggSpec("sum", "total", column="s_amount")],
    )
    expected = sorted(measure(db, hand).rows)
    result = db.execute(
        db.query("sales").group_by("s_cust")
        .aggregate(AggSpec("sum", "total", column="s_amount"))
    )
    assert sorted(result.rows) == expected


# -- lowering behaviour ------------------------------------------------------

def test_cross_table_predicate_becomes_filter(sales_db):
    db = sales_db
    # s_cust vs. c_region spans both tables: must survive as a post-join
    # residual, not be lost or pushed anywhere.
    query = (
        db.query("sales")
        .join("customers", on=("s_cust", "c_id"))
        .where(ColumnComparison("s_cust", CompareOp.GT, "c_region"))
    )
    result = db.execute(query)
    assert result.row_count > 0
    for row in result.rows:
        assert row[1] > row[4]  # s_cust > c_region on the joined schema
    assert "Filter" in result.explain()


@pytest.fixture()
def left_join_db():
    """Orders 0..99 but only even customers exist: real null padding."""
    db = Database()
    db.load_table("orders", Schema.of_ints(["o_id", "o_cust"]),
                  [(i, i % 100) for i in range(300)])
    db.load_table("cust", Schema.of_ints(["k_id", "k_tier"]),
                  [(i, i % 4) for i in range(0, 100, 2)])
    return db


def test_left_join_keeps_unmatched_rows(left_join_db):
    db = left_join_db
    result = db.execute(
        db.query("orders").join("cust", on=("o_cust", "k_id"), how="left")
    )
    assert result.row_count == 300  # every left row survives
    padded = [r for r in result.rows if r[2] is None]
    assert len(padded) == 150  # odd customers are null-padded


def test_left_join_filter_on_inner_is_not_pushed_below(left_join_db):
    db = left_join_db
    # WHERE on the nullable side of a LEFT JOIN must filter the *joined*
    # rows (dropping null-padded ones), not be pushed into the inner
    # scan (which would null-pad instead of dropping).
    query = (
        db.query("orders")
        .join("cust", on=("o_cust", "k_id"), how="left")
        .where(Comparison("k_tier", CompareOp.EQ, 2))
    )
    result = db.execute(query)
    assert result.row_count > 0
    assert all(row[3] == 2 for row in result.rows)  # no null padding


def test_left_join_cross_filter_rejects_null_padded_rows(left_join_db):
    db = left_join_db
    # A residual comparing across tables after a LEFT JOIN hits
    # null-padded rows: SQL WHERE semantics drop them (no crash).
    query = (
        db.query("orders")
        .join("cust", on=("o_cust", "k_id"), how="left")
        .where(ColumnComparison("o_id", CompareOp.GT, "k_tier"))
    )
    result = db.execute(query)
    assert result.row_count > 0
    assert all(row[3] is not None and row[0] > row[3]
               for row in result.rows)


def test_left_join_disjunctive_residual_keeps_true_or_unknown(left_join_db):
    db = left_join_db
    from repro.exec.expressions import Or
    # TRUE OR UNKNOWN keeps the row: o_id < 5 matches rows whose cust
    # side may be null-padded; those must survive the OR residual.
    query = (
        db.query("orders")
        .join("cust", on=("o_cust", "k_id"), how="left")
        .where(Or([Comparison("o_id", CompareOp.LT, 5),
                   ColumnComparison("o_id", CompareOp.LT, "k_tier")]))
    )
    rows = db.execute(query).rows
    # o_id 1 and 3 pair with odd (missing) customers: padded, yet kept.
    assert [r for r in rows if r[0] in (1, 3) and r[2] is None]
    # And no row with a NULL k_tier passes via the comparison branch.
    assert all(r[0] < 5 or (r[3] is not None and r[0] < r[3]) for r in rows)


def test_order_by_direction_validation(sales_db):
    db = sales_db
    q = db.query("sales").order_by(("s_amount", "desc"), ("s_id", "asc"))
    assert [o.ascending for o in q.spec.order_by] == [False, True]
    with pytest.raises(PlanningError):
        db.query("sales").order_by(("s_amount", "descending"))


def test_left_join_negated_composite_follows_three_valued_logic(left_join_db):
    db = left_join_db
    from repro.exec.expressions import And, Not
    # NOT(FALSE AND UNKNOWN) = TRUE: null-padded rows where the first
    # conjunct is false must be KEPT (De Morgan distribution).
    query = (
        db.query("orders")
        .join("cust", on=("o_cust", "k_id"), how="left")
        .where(Not(And([Comparison("o_id", CompareOp.LT, 0),   # always false
                        Comparison("k_tier", CompareOp.EQ, 1)])))
    )
    result = db.execute(query)
    assert result.row_count == 300  # every row survives, padded or not


def test_semi_join(sales_db):
    db = sales_db
    # Customers 0..49 only: semi join keeps sales rows with a match.
    query = (
        db.query("sales")
        .join("customers", on=("s_cust", "c_id"), how="semi")
        .where(Comparison("c_id", CompareOp.LT, 50))
    )
    result = db.execute(query)
    assert result.rows  # output keeps the left schema
    assert all(len(r) == 3 and r[1] < 50 for r in result.rows)


def test_select_order_limit(sales_db):
    db = sales_db
    query = (
        db.query("sales")
        .select("s_id", "s_amount")
        .order_by(("s_amount", False), "s_id")
        .limit(5)
    )
    result = db.execute(query)
    assert len(result.rows) == 5
    amounts = [r[1] for r in result.rows]
    assert amounts == sorted(amounts, reverse=True)
    assert all(len(r) == 2 for r in result.rows)


def test_three_table_join_greedy_order(sales_db):
    db = sales_db
    # A third tiny table joined through customers; both join orders must
    # produce the same rows and resolve keys transitively.
    if "regions" not in db.tables:
        db.load_table("regions", Schema.of_ints(["r_id", "r_code"]),
                      [(i, 100 + i) for i in range(11)])
        db.analyze("regions")
    q = (
        db.query("sales")
        .where(Comparison("s_amount", CompareOp.LT, 100))
        .join("customers", on=("s_cust", "c_id"))
        .join("regions", on=("c_region", "r_id"))
    )
    rows = sorted(db.execute(q).rows)
    assert rows and all(row[6] == 100 + row[4] for row in rows)


def test_join_reordering_keeps_declared_column_layout():
    db = Database()
    db.load_table("a", Schema.of_ints(["ak", "av"]),
                  [(i, i + 10) for i in range(100)])
    db.load_table("b", Schema.of_ints(["bk", "bv"]),
                  [(i, i + 20) for i in range(100)])
    db.load_table("c", Schema.of_ints(["ck", "cv"]),
                  [(i, i + 30) for i in range(5)])
    q = (db.query("a").join("b", on=("ak", "bk"))
         .join("c", on=("ak", "ck")))
    before = db.execute(q)
    db.analyze()  # statistics may flip the greedy join order...
    after = db.execute(q)
    # ...but the output layout must stay the declared a+b+c order.
    declared = ["ak", "av", "bk", "bv", "ck", "cv"]
    assert list(before.plan.root.schema.column_names) == declared
    assert list(after.plan.root.schema.column_names) == declared
    assert sorted(before.rows) == sorted(after.rows)


def test_semi_join_hidden_column_error_names_the_cause():
    db = Database()
    db.load_table("a", Schema.of_ints(["ak", "av"]), [(i, i) for i in range(5)])
    db.load_table("b", Schema.of_ints(["bk", "bv"]), [(i, i) for i in range(5)])
    q = (db.query("a").join("b", on=("ak", "bk"), how="semi")
         .where(ColumnComparison("av", CompareOp.GT, "bv")))
    with pytest.raises(PlanningError, match="semi/anti"):
        db.execute(q)


def test_force_path_overrides_enable_flags(micro):
    db, _table = micro
    from repro.workloads.micro import selectivity_predicate
    res = db.execute(
        db.query("micro").where(selectivity_predicate(0.01)),
        options=PlannerOptions(enable_index=False, force_path="index"),
    )
    decision = res.decisions[0]
    assert decision.path == "index"
    # The decision reports the full comparison, forced path included.
    assert decision.alternatives["index"] == decision.estimated_cost


def test_unresolvable_join_key_raises(sales_db):
    db = sales_db
    q = db.query("customers").join("sales", on=("nope", "s_cust"))
    with pytest.raises(PlanningError):
        db.execute(q)


def test_single_string_join_key_rejected_for_inner(sales_db):
    db = sales_db
    # on="col" means the same column name on both sides, which only
    # semi/anti joins can output; inner joins must fail at the builder.
    with pytest.raises(PlanningError, match="duplicate"):
        db.query("sales").join("customers", on="c_id")


def test_unknown_table_raises(sales_db):
    with pytest.raises(StorageError):
        sales_db.query("missing")


def test_unknown_predicate_column_raises(sales_db):
    db = sales_db
    q = db.query("sales").where(Comparison("bogus", CompareOp.EQ, 1))
    with pytest.raises(PlanningError):
        db.execute(q)


def test_force_index_without_index_raises(sales_db):
    db = sales_db
    q = db.query("customers").where(Comparison("c_region", CompareOp.EQ, 3))
    with pytest.raises(PlanningError):
        db.execute(q, options=PlannerOptions(force_path="index"))


def test_force_path_applies_to_base_scan_only(sales_db):
    db = sales_db
    # Forcing a path must not leak into the join's inner side (whose
    # TruePredicate offers no range for index/sort/smooth paths).
    q = (db.query("sales")
         .where(Comparison("s_amount", CompareOp.LT, 300))
         .join("customers", on=("s_cust", "c_id")))
    baseline = sorted(db.execute(q).rows)
    for path in ("full", "index", "sort", "smooth"):
        res = db.execute(q, options=PlannerOptions(force_path=path))
        assert sorted(res.rows) == baseline
        # First scan decision in preorder is the base table's: pinned.
        scans = [d.path for d in res.decisions
                 if d.path in ("full", "index", "sort", "smooth")]
        assert scans[0] == path
    # full additionally forbids INLJ and forces inner scans sequential:
    # the whole plan is scans + hash joins.
    res = db.execute(q, options=PlannerOptions(force_path="full"))
    assert all(d.path in ("full", "hash") for d in res.decisions)


def test_shared_column_resolves_to_visible_side_of_semi_join():
    db = Database()
    db.load_table("a", Schema.of_ints(["k", "tag"]), [(i, i) for i in range(10)])
    db.load_table("b", Schema.of_ints(["k2", "tag"]),
                  [(i, 99) for i in range(5)])
    # b's tag is hidden behind the semi join, so "tag" means a.tag —
    # the same scoping SQL applies to the outer query block.
    q = (db.query("a").join("b", on=("k", "k2"), how="semi")
         .where(Comparison("tag", CompareOp.EQ, 3)))
    assert db.execute(q).rows == [(3, 3)]
    # Filtering the shared join key itself works the same way.
    db.load_table("c", Schema.of_ints(["k", "other"]),
                  [(i, 0) for i in range(5)])
    q2 = (db.query("a").join("c", on="k", how="semi")
          .where(Comparison("k", CompareOp.LT, 2)))
    assert db.execute(q2).rows == [(0, 0), (1, 1)]


def test_zero_column_predicate_pushes_to_base(sales_db):
    from repro.exec.expressions import Not, Predicate, TruePredicate

    class ConstFalse(Predicate):
        def compile(self, schema):
            return Not(TruePredicate()).compile(schema)

        def columns(self):
            return set()

    db = sales_db
    q = (db.query("sales").join("customers", on=("s_cust", "c_id"))
         .where(ConstFalse()))
    assert db.execute(q).row_count == 0  # evaluable, not "ambiguous"


def test_ambiguous_column_rejected():
    db = Database()
    db.load_table("a", Schema.of_ints(["k", "tag"]), [(i, i) for i in range(10)])
    db.load_table("b", Schema.of_ints(["k2", "tag"]), [(i, i) for i in range(10)])
    # Both sides of a left join stay visible: "tag" is truly ambiguous.
    q = (db.query("a").join("b", on=("k", "k2"), how="left")
         .where(Comparison("tag", CompareOp.EQ, 5)))
    with pytest.raises(PlanningError, match="ambiguous"):
        db.execute(q)


def test_reexecution_resets_actual_counts(sales_db):
    db = sales_db
    planned = db.plan(db.query("sales").limit(1))
    from repro.exec.stats import measure
    measure(db, planned.root)
    assert planned.tree.actual_rows == 1
    planned.reset_counters()
    assert planned.tree.actual_rows is None
    assert "act=?" in planned.render()


def test_null_rejecting_does_not_mask_type_errors(left_join_db):
    db = left_join_db
    # A genuinely mistyped predicate (str constant vs int column) must
    # still raise loudly, not silently drop every row.
    q = (db.query("orders")
         .join("cust", on=("o_cust", "k_id"), how="left")
         .where(Comparison("k_tier", CompareOp.LT, "2")))
    with pytest.raises(TypeError):
        db.execute(q)


def test_bad_force_path_rejected():
    with pytest.raises(PlanningError):
        PlannerOptions(force_path="bitmap")


# -- builder ergonomics ------------------------------------------------------

def test_query_is_immutable(sales_db):
    db = sales_db
    base = db.query("sales")
    filtered = base.where(Comparison("s_amount", CompareOp.LT, 10))
    limited = filtered.limit(3)
    assert base.spec.predicate is not filtered.spec.predicate
    assert base.spec.limit is None and limited.spec.limit == 3
    assert filtered.spec.limit is None  # branching does not mutate


def test_chained_where_flattens_for_pushdown(sales_db):
    db = sales_db
    from repro.exec.expressions import And
    chained = (db.query("sales")
               .join("customers", on=("s_cust", "c_id"), how="semi")
               .where(Comparison("s_amount", CompareOp.LT, 100))
               .where(Comparison("c_region", CompareOp.EQ, 1))
               .where(Comparison("s_id", CompareOp.LT, 4000)))
    # Conjuncts stay top-level (no nested And), so each is pushable.
    assert all(not isinstance(p, And)
               for p in chained.spec.predicate.parts)
    single = (db.query("sales")
              .join("customers", on=("s_cust", "c_id"), how="semi")
              .where(Comparison("s_amount", CompareOp.LT, 100),
                     Comparison("c_region", CompareOp.EQ, 1),
                     Comparison("s_id", CompareOp.LT, 4000)))
    assert sorted(db.execute(chained).rows) == sorted(db.execute(single).rows)


def test_where_rejects_non_predicates(sales_db):
    with pytest.raises(PlanningError):
        sales_db.query("sales").where("s_amount < 10")


def test_aggregate_shorthand_normalization(sales_db):
    q = sales_db.query("sales").aggregate(
        ("count", "*"), ("sum", "s_amount"), ("avg", "s_amount", "mean"),
    )
    outputs = [a.output for a in q.spec.aggregates]
    assert outputs == ["count", "sum_s_amount", "mean"]
    with pytest.raises(PlanningError):
        sales_db.query("sales").aggregate(("median", "s_amount"))


def test_run_convenience_and_repr(sales_db):
    db = sales_db
    q = (db.query("sales").where(Comparison("s_amount", CompareOp.LT, 50))
         .limit(2).using(PlannerOptions(force_path="full")))
    res = q.run(keep_rows=False)
    assert res.row_count == 2
    assert "full" in [d.path for d in res.decisions]
    assert "Query('sales'" in repr(q)
    assert "QueryResult" in repr(res)


def test_database_analyze_populates_catalog(sales_db):
    db = sales_db
    assert db.catalog.has_table("sales")
    # Estimates flow from the analyzed histogram: a range estimate within
    # 2x of truth (the uniform data makes the histogram accurate).
    res = db.execute(db.query("sales")
                     .where(Comparison("s_amount", CompareOp.LT, 500)))
    est = res.decisions[0].estimated_cardinality
    assert 0.5 < est / max(1, res.row_count) < 2.0

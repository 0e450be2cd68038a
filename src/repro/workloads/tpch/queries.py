"""The 19 TPC-H queries of Figure 1 as physical plan builders.

Queries are expressed directly as operator trees (access-path behaviour
depends on plan structure, not parsing); Q1, Q6 and Q14 are also
:data:`SQL_QUERIES` text.  Computed values are chunk functions built from
:mod:`repro.exec.values`, the kernel SQL expressions compile to.  Each
query function takes a :class:`TpchPlanBuilder`, which decides the
access paths according to its mode:

* ``"original"`` — no secondary-index usage: full scans + hash joins
  (Figure 1's pre-tuning baseline).
* ``"tuned"`` — cost-based: the planner picks full/index/sort scans from
  (possibly wrong) estimates, and joins become index-nested-loops when the
  estimated outer cardinality makes probing look cheap — the decisions
  that blow up in Q12/Q19 when the estimates are far off.
* ``"smooth"`` — identical join structure to ``tuned``, but every base
  scan is an eager-Elastic Smooth Scan and INLJ inners use per-key smooth
  morphing; the upper plan layers stay intact, as in Section IV.

Aggregations follow the TPC-H definitions; a few query tails (HAVING
thresholds over correlated subqueries) are simplified to fixed-constant
filters, which leaves the access-path-relevant shape — the paper's object
of study — unchanged.
"""

from __future__ import annotations

from typing import Callable

from repro.database import Database
from repro.errors import PlanningError
from repro.exec.aggregates import AggSpec, HashAggregate
from repro.exec.expressions import (
    And,
    Between,
    ColumnComparison,
    CompareOp,
    Comparison,
    InList,
    Not,
    Or,
    Predicate,
    StringMatch,
    TruePredicate,
)
from repro.exec.iterator import Operator
from repro.exec.joins import HashJoin, IndexNestedLoopJoin
from repro.exec.misc import Filter, Limit, MapProject, Rename
from repro.exec.scans import FullTableScan
from repro.exec.sort import Sort
from repro.exec.values import (
    Node,
    arith,
    case,
    column,
    compute,
    compute_all,
    constant,
)
from repro.optimizer.cardinality import estimate_cardinality
from repro.optimizer.planner import Planner, PlannerOptions
from repro.optimizer.statistics import StatisticsCatalog
from repro.storage.types import Column, ColumnType, Schema
from repro.workloads.tpch.schema import date

_MODES = ("original", "tuned", "smooth")


def mode_options(mode: str) -> PlannerOptions:
    """The PlannerOptions equivalent of a Figure-1 execution mode.

    ``original`` disables every secondary-index path (full scans + hash
    joins only), ``tuned`` is the cost-based default, ``smooth`` replaces
    every base access path with a Smooth Scan (§IV-B).  Feeding these to
    :meth:`~repro.optimizer.planner.Planner.plan_query` reproduces the
    same physical plans the hand-built query trees use.
    """
    if mode not in _MODES:
        raise PlanningError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "original":
        return PlannerOptions(enable_index=False, enable_sort_scan=False,
                              enable_inlj=False)
    return PlannerOptions(enable_smooth=(mode == "smooth"))


class TpchPlanBuilder:
    """Chooses access paths and join methods for the query builders."""

    def __init__(self, db: Database, catalog: StatisticsCatalog,
                 mode: str = "tuned"):
        self.db = db
        self.catalog = catalog
        self.mode = mode
        self._planner = Planner(db, catalog, mode_options(mode))

    # -- scans ---------------------------------------------------------------

    def scan(self, table_name: str, predicate: Predicate | None = None,
             order_by: str | None = None) -> Operator:
        """An access path for one base table under the builder's mode."""
        table = self.db.table(table_name)
        predicate = predicate or TruePredicate()
        if self.mode == "original":
            op: Operator = FullTableScan(table, predicate)
            if order_by is not None:
                op = Sort(op, [order_by])
            return op
        op, _decision = self._planner.plan_scan(
            table_name, predicate, order_by=order_by
        )
        return op

    # -- joins ---------------------------------------------------------------

    def join_to(self, outer: Operator, est_outer_rows: int,
                inner_table: str, outer_key: str, inner_key: str,
                inner_predicate: Predicate | None = None) -> Operator:
        """Join ``outer`` to ``inner_table`` on an equi-key.

        In ``original`` mode this is always a hash join against a full
        scan.  Otherwise the builder compares the estimated INLJ cost
        (outer rows × probe cost) against a hash join (inner full scan +
        hashing) — using the *estimated* outer cardinality, so a bad
        estimate here is exactly what turns Q12 into a disaster.
        """
        inner = self.db.table(inner_table)
        use_inlj = (
            self.mode != "original"
            and inner.has_index(inner_key)
            and self._inlj_beats_hash(est_outer_rows, inner_table, inner_key)
        )
        if use_inlj:
            residual = None
            if inner_predicate is not None:
                residual = inner_predicate  # evaluated on the joined schema
            return IndexNestedLoopJoin(
                outer, inner, inner_key, outer_key,
                residual=residual,
                inner_access="smooth" if self.mode == "smooth" else "classic",
            )
        inner_scan = self.scan(inner_table, inner_predicate)
        return HashJoin(outer, inner_scan, [outer_key], [inner_key])

    def _inlj_beats_hash(self, est_outer_rows: int, inner_table: str,
                         inner_key: str) -> bool:
        costs = self._planner.join_method_costs(
            est_outer_rows, inner_table, inner_key
        )
        return costs["inlj"] < costs["hash"]

    # -- estimates -------------------------------------------------------------

    def estimate(self, table_name: str,
                 predicate: Predicate | None = None) -> int:
        """The optimizer's cardinality estimate for a filtered table."""
        table = self.db.table(table_name)
        return estimate_cardinality(
            self.catalog, table_name, predicate or TruePredicate(),
            fallback_rows=table.row_count,
        )


QueryBuilder = Callable[[TpchPlanBuilder], Operator]


def _col(schema: Schema, name: str) -> Node:
    return column(schema.index_of(name))


def _mul(schema: Schema, a: str, b: str) -> Node:
    """``a * b`` over two columns."""
    return arith("*", _col(schema, a), _col(schema, b))


def _disc_price(schema: Schema) -> Node:
    """``l_extendedprice * (1 - l_discount)``."""
    return arith("*", _col(schema, "l_extendedprice"),
                 arith("-", constant(1), _col(schema, "l_discount")))


def _sum_expr(output: str, node: Node) -> AggSpec:
    """A sum over a computed value."""
    return AggSpec("sum", output, value=compute(node))


def _revenue(schema: Schema, output: str = "revenue") -> AggSpec:
    """``sum(l_extendedprice * (1 - l_discount))``."""
    return _sum_expr(output, _disc_price(schema))


def _share(schema: Schema, scale: float | None, part: str,
           whole: str) -> Node:
    """``[scale *] part / whole``, or ``0.0`` where ``whole`` is zero."""
    num = _col(schema, part)
    if scale is not None:
        num = arith("*", constant(scale), num)
    return case(Comparison(whole, CompareOp.NE, 0.0), schema,
                arith("/", num, _col(schema, whole)), constant(0.0))


def _with_year(child: Operator, date_column: str, name: str) -> Operator:
    """``child`` plus an INT column ``1992 + date_column // 365``."""
    s = child.schema
    year = arith("+", constant(1992),
                 arith("//", _col(s, date_column), constant(365)))
    passed = [column(i) for i in range(len(s.columns))]
    return MapProject(child,
                      Schema(list(s.columns) + [Column(name, ColumnType.INT)]),
                      compute_all(passed + [year]))


# ---------------------------------------------------------------------------
# The queries
# ---------------------------------------------------------------------------

def q1(b: TpchPlanBuilder) -> Operator:
    """Q1 Pricing Summary Report — ``l_shipdate <= 1998-09-02`` (~98%)."""
    pred = Comparison("l_shipdate", CompareOp.LE, date(1998, 9, 2))
    scan = b.scan("lineitem", pred)
    s = scan.schema
    charge = arith("*", _disc_price(s),
                   arith("+", constant(1), _col(s, "l_tax")))
    agg = HashAggregate(scan, ["l_returnflag", "l_linestatus"], [
        AggSpec("sum", "sum_qty", column="l_quantity"),
        AggSpec("sum", "sum_base_price", column="l_extendedprice"),
        _sum_expr("sum_disc_price", _disc_price(s)),
        _sum_expr("sum_charge", charge),
        AggSpec("avg", "avg_qty", column="l_quantity"),
        AggSpec("avg", "avg_price", column="l_extendedprice"),
        AggSpec("avg", "avg_disc", column="l_discount"),
        AggSpec("count", "count_order"),
    ])
    return Sort(agg, ["l_returnflag", "l_linestatus"])


def q2(b: TpchPlanBuilder) -> Operator:
    """Q2 Minimum Cost Supplier (simplified tail: top 100 by part key)."""
    part_pred = And([
        Comparison("p_size", CompareOp.EQ, 15),
        StringMatch("p_type", "suffix", "BRASS"),
    ])
    part = b.scan("part", part_pred)
    ps = b.join_to(part, b.estimate("part", part_pred),
                   "partsupp", "p_partkey", "ps_partkey")
    supp = HashJoin(ps, b.scan("supplier"), ["ps_suppkey"], ["s_suppkey"])
    nat = HashJoin(supp, b.scan("nation"), ["s_nationkey"], ["n_nationkey"])
    reg = HashJoin(
        nat,
        b.scan("region", Comparison("r_name", CompareOp.EQ, "EUROPE")),
        ["n_regionkey"], ["r_regionkey"],
    )
    agg = HashAggregate(reg, ["p_partkey"], [
        AggSpec("min", "min_cost", column="ps_supplycost"),
    ])
    return Limit(Sort(agg, ["p_partkey"]), 100)


def q3(b: TpchPlanBuilder) -> Operator:
    """Q3 Shipping Priority — top 10 unshipped orders by revenue."""
    cutoff = date(1995, 3, 15)
    line = b.scan("lineitem", Comparison("l_shipdate", CompareOp.GT, cutoff))
    orders = b.join_to(
        line, b.estimate("lineitem",
                         Comparison("l_shipdate", CompareOp.GT, cutoff)),
        "orders", "l_orderkey", "o_orderkey",
        inner_predicate=Comparison("o_orderdate", CompareOp.LT, cutoff),
    )
    cust = HashJoin(
        orders,
        b.scan("customer",
               Comparison("c_mktsegment", CompareOp.EQ, "BUILDING")),
        ["o_custkey"], ["c_custkey"],
    )
    agg = HashAggregate(
        cust, ["o_orderkey", "o_orderdate", "o_shippriority"],
        [_revenue(cust.schema)],
    )
    return Limit(Sort(agg, [("revenue", False), ("o_orderdate", True)]), 10)


def q4(b: TpchPlanBuilder) -> Operator:
    """Q4 Order Priority Checking — LINEITEM side is ~65% selective.

    The paper's plan shape: the filtered lineitem drives a PK join into
    orders, then distinct orders are counted per priority.
    """
    line_pred = ColumnComparison("l_commitdate", CompareOp.LT,
                                 "l_receiptdate")
    line = b.scan("lineitem", line_pred)
    joined = b.join_to(
        line, b.estimate("lineitem", line_pred),
        "orders", "l_orderkey", "o_orderkey",
        inner_predicate=Between("o_orderdate", date(1993, 7, 1),
                                date(1993, 10, 1)),
    )
    distinct = HashAggregate(
        joined, ["o_orderpriority", "o_orderkey"],
        [AggSpec("count", "dup_lines")],
    )
    agg = HashAggregate(distinct, ["o_orderpriority"], [
        AggSpec("count", "order_count"),
    ])
    return Sort(agg, ["o_orderpriority"])


def q5(b: TpchPlanBuilder) -> Operator:
    """Q5 Local Supplier Volume — 6-table join, revenue per nation."""
    orders_pred = Between("o_orderdate", date(1994, 1, 1), date(1995, 1, 1))
    orders = b.scan("orders", orders_pred)
    line = b.join_to(orders, b.estimate("orders", orders_pred),
                     "lineitem", "o_orderkey", "l_orderkey")
    supp = HashJoin(line, b.scan("supplier"), ["l_suppkey"], ["s_suppkey"])
    cust = HashJoin(supp, b.scan("customer"), ["o_custkey"], ["c_custkey"])
    local = Filter(cust, ColumnComparison("c_nationkey", CompareOp.EQ,
                                          "s_nationkey"))
    nat = HashJoin(local, b.scan("nation"), ["s_nationkey"], ["n_nationkey"])
    reg = HashJoin(
        nat, b.scan("region", Comparison("r_name", CompareOp.EQ, "ASIA")),
        ["n_regionkey"], ["r_regionkey"],
    )
    agg = HashAggregate(reg, ["n_name"], [_revenue(reg.schema)])
    return Sort(agg, [("revenue", False)])


def q6(b: TpchPlanBuilder) -> Operator:
    """Q6 Forecasting Revenue Change — the ~2% single-table selection."""
    pred = And([
        Between("l_shipdate", date(1994, 1, 1), date(1995, 1, 1)),
        Between("l_discount", 0.05, 0.07, hi_inclusive=True),
        Comparison("l_quantity", CompareOp.LT, 24),
    ])
    scan = b.scan("lineitem", pred)
    return HashAggregate(scan, [], [
        _sum_expr("revenue", _mul(scan.schema, "l_extendedprice",
                                  "l_discount")),
    ])


def q7(b: TpchPlanBuilder) -> Operator:
    """Q7 Volume Shipping — 6-table join with a two-nation filter (~30%)."""
    ship_pred = Between("l_shipdate", date(1995, 1, 1), date(1996, 12, 31),
                        hi_inclusive=True)
    line = b.scan("lineitem", ship_pred)
    supp = HashJoin(line, b.scan("supplier"), ["l_suppkey"], ["s_suppkey"])
    orders = b.join_to(supp, b.estimate("lineitem", ship_pred),
                       "orders", "l_orderkey", "o_orderkey")
    cust = HashJoin(orders, b.scan("customer"), ["o_custkey"], ["c_custkey"])
    n1 = Rename(
        b.scan("nation", InList("n_name", ("FRANCE", "GERMANY"))),
        {"n_nationkey": "n1_nationkey", "n_name": "supp_nation",
         "n_regionkey": "n1_regionkey"},
    )
    n2 = Rename(
        b.scan("nation", InList("n_name", ("FRANCE", "GERMANY"))),
        {"n_nationkey": "n2_nationkey", "n_name": "cust_nation",
         "n_regionkey": "n2_regionkey"},
    )
    j1 = HashJoin(cust, n1, ["s_nationkey"], ["n1_nationkey"])
    j2 = HashJoin(j1, n2, ["c_nationkey"], ["n2_nationkey"])
    cross = Filter(j2, Not(ColumnComparison("supp_nation", CompareOp.EQ,
                                            "cust_nation")))
    with_year = _with_year(cross, "l_shipdate", "l_year")
    agg = HashAggregate(with_year, ["supp_nation", "cust_nation", "l_year"],
                        [_revenue(with_year.schema, "volume")])
    return Sort(agg, ["supp_nation", "cust_nation", "l_year"])


def q8(b: TpchPlanBuilder) -> Operator:
    """Q8 National Market Share (share of BRAZIL suppliers in AMERICA)."""
    part_pred = Comparison("p_type", CompareOp.EQ, "ECONOMY ANODIZED STEEL")
    part = b.scan("part", part_pred)
    line = HashJoin(part, b.scan("lineitem"), ["p_partkey"], ["l_partkey"])
    orders = b.join_to(
        line, b.estimate("part", part_pred) * 30,
        "orders", "l_orderkey", "o_orderkey",
        inner_predicate=Between("o_orderdate", date(1995, 1, 1),
                                date(1996, 12, 31), hi_inclusive=True),
    )
    cust = HashJoin(orders, b.scan("customer"), ["o_custkey"], ["c_custkey"])
    nat = HashJoin(cust, b.scan("nation"), ["c_nationkey"], ["n_nationkey"])
    reg = HashJoin(
        nat, b.scan("region", Comparison("r_name", CompareOp.EQ, "AMERICA")),
        ["n_regionkey"], ["r_regionkey"],
    )
    supp = HashJoin(reg, b.scan("supplier"), ["l_suppkey"], ["s_suppkey"])
    supp_nat = HashJoin(
        supp,
        Rename(b.scan("nation"),
               {"n_nationkey": "sn_nationkey", "n_name": "supp_nation",
                "n_regionkey": "sn_regionkey"}),
        ["s_nationkey"], ["sn_nationkey"],
    )
    with_year = _with_year(supp_nat, "o_orderdate", "o_year")
    s = with_year.schema
    agg = HashAggregate(with_year, ["o_year"], [
        _sum_expr("brazil_volume", case(
            Comparison("supp_nation", CompareOp.EQ, "BRAZIL"), s,
            _disc_price(s), constant(0.0))),
        _revenue(s, "total_volume"),
    ])
    share_schema = Schema([Column("o_year", ColumnType.INT),
                           Column("mkt_share", ColumnType.FLOAT)])
    share = MapProject(agg, share_schema, compute_all([
        column(0), _share(agg.schema, None, "brazil_volume", "total_volume"),
    ]))
    return Sort(share, ["o_year"])


def q9(b: TpchPlanBuilder) -> Operator:
    """Q9 Product Type Profit — parts named *green*, profit per nation/year."""
    part_pred = StringMatch("p_name", "contains", "green")
    part = b.scan("part", part_pred)
    line = HashJoin(part, b.scan("lineitem"), ["p_partkey"], ["l_partkey"])
    ps = HashJoin(line, b.scan("partsupp"),
                  ["l_partkey", "l_suppkey"], ["ps_partkey", "ps_suppkey"])
    supp = HashJoin(ps, b.scan("supplier"), ["l_suppkey"], ["s_suppkey"])
    orders = b.join_to(supp, b.estimate("part", part_pred) * 30,
                       "orders", "l_orderkey", "o_orderkey")
    nat = HashJoin(orders, b.scan("nation"), ["s_nationkey"], ["n_nationkey"])
    with_year = _with_year(nat, "o_orderdate", "o_year")
    s = with_year.schema
    agg = HashAggregate(with_year, ["n_name", "o_year"], [
        _sum_expr("sum_profit", arith(
            "-", _disc_price(s), _mul(s, "ps_supplycost", "l_quantity"))),
    ])
    return Sort(agg, [("n_name", True), ("o_year", False)])


def q10(b: TpchPlanBuilder) -> Operator:
    """Q10 Returned Item Reporting — top 20 customers by lost revenue."""
    orders_pred = Between("o_orderdate", date(1993, 10, 1), date(1994, 1, 1))
    orders = b.scan("orders", orders_pred)
    line = b.join_to(orders, b.estimate("orders", orders_pred),
                     "lineitem", "o_orderkey", "l_orderkey",
                     inner_predicate=Comparison("l_returnflag",
                                                CompareOp.EQ, "R"))
    cust = HashJoin(line, b.scan("customer"), ["o_custkey"], ["c_custkey"])
    nat = HashJoin(cust, b.scan("nation"), ["c_nationkey"], ["n_nationkey"])
    agg = HashAggregate(
        nat, ["c_custkey", "c_name", "c_acctbal", "n_name"],
        [_revenue(nat.schema)],
    )
    return Limit(Sort(agg, [("revenue", False)]), 20)


def q11(b: TpchPlanBuilder) -> Operator:
    """Q11 Important Stock (simplified HAVING: top 100 by value)."""
    ps = b.scan("partsupp")
    supp = HashJoin(ps, b.scan("supplier"), ["ps_suppkey"], ["s_suppkey"])
    nat = HashJoin(
        supp, b.scan("nation", Comparison("n_name", CompareOp.EQ, "GERMANY")),
        ["s_nationkey"], ["n_nationkey"],
    )
    agg = HashAggregate(nat, ["ps_partkey"], [
        _sum_expr("value", _mul(nat.schema, "ps_supplycost", "ps_availqty")),
    ])
    return Limit(Sort(agg, [("value", False)]), 100)


def q12(b: TpchPlanBuilder) -> Operator:
    """Q12 Shipping Modes and Order Priority — Figure 1's ×400 disaster.

    The lineitem predicate stacks correlated conjuncts (commit < receipt,
    ship < commit, receipt-date year, shipmode IN) whose AVI estimate is
    far below the true cardinality; in tuned mode the optimizer therefore
    drives an index-nested-loop into ORDERS from a much bigger outer than
    it expected.
    """
    line_pred = And([
        InList("l_shipmode", ("MAIL", "SHIP")),
        ColumnComparison("l_commitdate", CompareOp.LT, "l_receiptdate"),
        ColumnComparison("l_shipdate", CompareOp.LT, "l_commitdate"),
        Between("l_receiptdate", date(1994, 1, 1), date(1995, 1, 1)),
    ])
    line = b.scan("lineitem", line_pred)
    joined = b.join_to(line, b.estimate("lineitem", line_pred),
                       "orders", "l_orderkey", "o_orderkey")
    high = InList("o_orderpriority", ("1-URGENT", "2-HIGH"))
    s = joined.schema
    agg = HashAggregate(joined, ["l_shipmode"], [
        _sum_expr("high_line_count",
                  case(high, s, constant(1), constant(0))),
        _sum_expr("low_line_count",
                  case(high, s, constant(0), constant(1))),
    ])
    return Sort(agg, ["l_shipmode"])


def q13(b: TpchPlanBuilder) -> Operator:
    """Q13 Customer Distribution — orders per customer, including zero."""
    cust = b.scan("customer")
    joined = HashJoin(cust, b.scan("orders"),
                      ["c_custkey"], ["o_custkey"], join_type="left")
    per_cust = HashAggregate(joined, ["c_custkey"], [
        AggSpec("count", "c_count", column="o_orderkey"),
    ])
    dist = HashAggregate(per_cust, ["c_count"], [
        AggSpec("count", "custdist"),
    ])
    return Sort(dist, [("custdist", False), ("c_count", False)])


def q14(b: TpchPlanBuilder) -> Operator:
    """Q14 Promotion Effect — one shipping month (~1% of lineitem)."""
    pred = Between("l_shipdate", date(1995, 9, 1), date(1995, 10, 1))
    line = b.scan("lineitem", pred)
    joined = b.join_to(line, b.estimate("lineitem", pred),
                       "part", "l_partkey", "p_partkey")
    s = joined.schema
    agg = HashAggregate(joined, [], [
        _sum_expr("promo_revenue", case(
            StringMatch("p_type", "prefix", "PROMO"), s,
            _disc_price(s), constant(0.0))),
        _revenue(s, "total_revenue"),
    ])
    out_schema = Schema([Column("promo_pct", ColumnType.FLOAT)])
    return MapProject(agg, out_schema, compute_all([
        _share(agg.schema, 100.0, "promo_revenue", "total_revenue"),
    ]))


def q16(b: TpchPlanBuilder) -> Operator:
    """Q16 Parts/Supplier Relationship — distinct suppliers per part group."""
    part_pred = And([
        Not(Comparison("p_brand", CompareOp.EQ, "Brand#45")),
        Not(StringMatch("p_type", "prefix", "MEDIUM POLISHED")),
        InList("p_size", (49, 14, 23, 45, 19, 3, 36, 9)),
    ])
    part = b.scan("part", part_pred)
    ps = HashJoin(part, b.scan("partsupp"), ["p_partkey"], ["ps_partkey"])
    distinct = HashAggregate(
        ps, ["p_brand", "p_type", "p_size", "ps_suppkey"],
        [AggSpec("count", "dup")],
    )
    agg = HashAggregate(distinct, ["p_brand", "p_type", "p_size"], [
        AggSpec("count", "supplier_cnt"),
    ])
    return Sort(agg, [("supplier_cnt", False), ("p_brand", True),
                      ("p_type", True), ("p_size", True)])


def q18(b: TpchPlanBuilder) -> Operator:
    """Q18 Large Volume Customer — orders with > 300 total quantity."""
    per_order = HashAggregate(b.scan("lineitem"), ["l_orderkey"], [
        AggSpec("sum", "total_qty", column="l_quantity"),
    ])
    big = Filter(per_order, Comparison("total_qty", CompareOp.GT, 300.0))
    orders = b.join_to(big, max(1, b.estimate("orders") // 500),
                       "orders", "l_orderkey", "o_orderkey")
    cust = HashJoin(orders, b.scan("customer"), ["o_custkey"], ["c_custkey"])
    agg = HashAggregate(
        cust,
        ["c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
        [AggSpec("sum", "sum_qty", column="total_qty")],
    )
    return Limit(Sort(agg, [("o_totalprice", False), ("o_orderdate", True)]),
                 100)


def q19(b: TpchPlanBuilder) -> Operator:
    """Q19 Discounted Revenue — Figure 1's second disaster (×20).

    An OR of three brand/container/quantity/size conjunctions; AVI makes
    each branch look vanishingly rare, so in tuned mode the filtered part
    side looks tiny and the optimizer probes lineitem per part via the
    ``l_partkey`` tuning index.
    """
    def branch(brand: str, containers: tuple, qty_lo: float, size_hi: int):
        return And([
            Comparison("p_brand", CompareOp.EQ, brand),
            InList("p_container", containers),
            Between("p_size", 1, size_hi, hi_inclusive=True),
        ]), Between("l_quantity", qty_lo, qty_lo + 10.0, hi_inclusive=True)

    p1, l1 = branch("Brand#12",
                    ("SM CASE", "SM BOX", "SM PACK", "SM PKG"), 1.0, 5)
    p2, l2 = branch("Brand#23",
                    ("MED BAG", "MED BOX", "MED PKG", "MED PACK"), 10.0, 10)
    p3, l3 = branch("Brand#34",
                    ("LG CASE", "LG BOX", "LG PACK", "LG PKG"), 20.0, 15)
    part_pred = Or([p1, p2, p3])
    part = b.scan("part", part_pred)
    joined = b.join_to(part, b.estimate("part", part_pred),
                       "lineitem", "p_partkey", "l_partkey")
    keep = Or([
        And([Comparison("p_brand", CompareOp.EQ, "Brand#12"), l1]),
        And([Comparison("p_brand", CompareOp.EQ, "Brand#23"), l2]),
        And([Comparison("p_brand", CompareOp.EQ, "Brand#34"), l3]),
    ])
    filtered = Filter(joined, keep)
    return HashAggregate(filtered, [], [_revenue(filtered.schema)])


def q21(b: TpchPlanBuilder) -> Operator:
    """Q21 Suppliers Who Kept Orders Waiting (simplified single-supplier
    EXISTS tail) — late lineitems of F-status orders per supplier."""
    late = ColumnComparison("l_receiptdate", CompareOp.GT, "l_commitdate")
    line = b.scan("lineitem", late)
    orders = b.join_to(
        line, b.estimate("lineitem", late),
        "orders", "l_orderkey", "o_orderkey",
        inner_predicate=Comparison("o_orderstatus", CompareOp.EQ, "F"),
    )
    supp = HashJoin(orders, b.scan("supplier"), ["l_suppkey"], ["s_suppkey"])
    nat = HashJoin(
        supp,
        b.scan("nation", Comparison("n_name", CompareOp.EQ, "SAUDI ARABIA")),
        ["s_nationkey"], ["n_nationkey"],
    )
    agg = HashAggregate(nat, ["s_name"], [AggSpec("count", "numwait")])
    return Limit(Sort(agg, [("numwait", False), ("s_name", True)]), 100)


def q22(b: TpchPlanBuilder) -> Operator:
    """Q22 Global Sales Opportunity — rich customers with no orders."""
    rich = Comparison("c_acctbal", CompareOp.GT, 7000.0)
    nations = InList("c_nationkey", (7, 8, 12, 18, 22, 23, 24))
    cust = b.scan("customer", And([rich, nations]))
    no_orders = HashJoin(cust, b.scan("orders"),
                         ["c_custkey"], ["o_custkey"], join_type="anti")
    agg = HashAggregate(no_orders, ["c_nationkey"], [
        AggSpec("count", "numcust"),
        AggSpec("sum", "totacctbal", column="c_acctbal"),
    ])
    return Sort(agg, ["c_nationkey"])


#: The Figure 1 query set, in the paper's x-axis order.
FIGURE1_QUERIES: dict[str, QueryBuilder] = {
    "Q1": q1, "Q2": q2, "Q3": q3, "Q4": q4, "Q5": q5, "Q6": q6, "Q7": q7,
    "Q8": q8, "Q9": q9, "Q10": q10, "Q11": q11, "Q12": q12, "Q13": q13,
    "Q14": q14, "Q16": q16, "Q18": q18, "Q19": q19, "Q21": q21, "Q22": q22,
}

#: The Figure 4 / Table II subset with the paper's quoted selectivities.
FIGURE4_QUERIES: dict[str, tuple[QueryBuilder, str]] = {
    "Q1": (q1, "98%"),
    "Q4": (q4, "65%"),
    "Q6": (q6, "2%"),
    "Q7": (q7, "30%"),
    "Q14": (q14, "1%"),
}


def build_query(name: str, builder: TpchPlanBuilder) -> Operator:
    """Build one Figure-1 query by name."""
    try:
        return FIGURE1_QUERIES[name](builder)
    except KeyError:
        raise PlanningError(
            f"unknown TPC-H query {name!r}; "
            f"available: {sorted(FIGURE1_QUERIES)}"
        ) from None


# ---------------------------------------------------------------------------
# SQL definitions
# ---------------------------------------------------------------------------
#
# Q1, Q6 and Q14 as SQL text, entering through a connection — the
# lexer → parser → binder pipeline.  The Figure 1/4 drivers run these
# through ``Database.execute`` + ``Planner.plan_query``, the code path
# applications use, and the rest as the operator trees above.  Under
# :func:`mode_options` each lowers to the physical plan its hand-built
# tree wires, so rows and every ledger count match (asserted by
# tests/test_sql_tpch.py): bound ranges merge into the same Between
# predicates, aggregate expressions compile into the same column
# functions, and Q14's promo-share arithmetic becomes a post-aggregation
# MapProject.

SQL_QUERIES: dict[str, str] = {
    "Q1": """
        SELECT l_returnflag, l_linestatus,
               sum(l_quantity) AS sum_qty,
               sum(l_extendedprice) AS sum_base_price,
               sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
               sum(l_extendedprice * (1 - l_discount) * (1 + l_tax))
                   AS sum_charge,
               avg(l_quantity) AS avg_qty,
               avg(l_extendedprice) AS avg_price,
               avg(l_discount) AS avg_disc,
               count(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= DATE '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """,
    "Q6": """
        SELECT sum(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= DATE '1994-01-01'
          AND l_shipdate < DATE '1995-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24
    """,
    "Q14": """
        SELECT 100.0 * sum(CASE WHEN p_type LIKE 'PROMO%'
                                THEN l_extendedprice * (1 - l_discount)
                                ELSE 0.0 END)
                     / sum(l_extendedprice * (1 - l_discount)) AS promo_pct
        FROM lineitem
        JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate >= DATE '1995-09-01'
          AND l_shipdate < DATE '1995-10-01'
    """,
}

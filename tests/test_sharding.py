"""The shard catalog, exchange operators and the split admission verdict.

Unit-level coverage for the shard-parallel subsystem: partitioning
decisions (balanced buckets, quantile range bounds, validation),
catalog registration semantics (shards invisible to FROM, re-shard and
unshard life cycle), the planner's exchange decision trail, and the
admission controller's ``split`` verdict — over-budget statements
re-priced at N shards and admitted as parallel plans.
"""

import pytest

from repro.database import Database
from repro.errors import ExecutionError, StorageError
from repro.exec.exchange import Exchange, ShardedScan, UnionAll
from repro.optimizer.planner import PlannerOptions
from repro.server.admission import ADMIT, SPLIT, AdmissionController
from repro.storage.sharding import (
    range_split_keys,
    shard_table_name,
    validate_sharding,
)
from repro.workloads.micro import VALUE_DOMAIN, build_micro_table


@pytest.fixture()
def micro_db():
    db = Database()
    build_micro_table(db, num_tuples=6_000, seed=5)
    db.analyze()
    return db


# -- partitioning decisions ---------------------------------------------------


def test_validate_sharding_rejects_bad_inputs():
    with pytest.raises(StorageError, match=">= 1"):
        validate_sharding(0, "round_robin")
    with pytest.raises(StorageError, match="unknown sharding scheme"):
        validate_sharding(4, "hash")
    validate_sharding(4, "range")  # fine


def test_range_split_keys_balance_under_skew():
    values = [0] * 90 + list(range(10))  # 90% of rows share one key
    keys = range_split_keys(values, 4)
    assert len(keys) == 3
    assert keys == tuple(sorted(keys))
    # Quantile splits put the boundary inside the hot key run, not at
    # equal key widths (which would leave three shards nearly empty).
    assert keys[0] == 0


def test_shard_names_cannot_collide_with_sql_identifiers():
    assert shard_table_name("micro", 3) == "micro#3"


# -- catalog registration -----------------------------------------------------


def test_shard_tables_balanced_and_invisible(micro_db):
    shard_set = micro_db.shard_table("micro", 4)
    counts = [shard.row_count for shard in shard_set.shards]
    assert sum(counts) == 6_000
    assert max(counts) - min(counts) <= 1  # round-robin balance
    # Shards carry the parent's indexes and fresh statistics.
    parent = micro_db.table("micro")
    for shard in shard_set.shards:
        assert set(shard.indexes) == set(parent.indexes)
    # Invisible to FROM: the shard is not a user table.
    conn = micro_db.connect(cold=False)
    with pytest.raises(Exception):
        conn.run("SELECT * FROM micro#0")


def test_reshard_and_unshard_lifecycle(micro_db):
    micro_db.shard_table("micro", 2)
    shard_set = micro_db.shard_table("micro", 3, scheme="range",
                                     column="c2")
    assert shard_set.num_shards == 3
    assert len(shard_set.bounds) == 2
    # Range shards hold disjoint key intervals in bound order.
    col = micro_db.table("micro").schema.index_of("c2")
    lo_max = max(r[col] for r in
                 shard_set.shards[0].heap.image()[:].to_rows())
    hi_min = min(r[col] for r in
                 shard_set.shards[2].heap.image()[:].to_rows())
    assert lo_max < shard_set.bounds[0] <= shard_set.bounds[1] <= hi_min
    with pytest.raises(StorageError, match="itself a shard"):
        micro_db.shard_table("micro#0", 2)
    micro_db.unshard_table("micro")
    assert micro_db.shard_set("micro") is None
    with pytest.raises(StorageError, match="not partitioned"):
        micro_db.unshard_table("micro")


# -- planning and the decision trail -----------------------------------------


def test_exchange_plan_shape_and_decisions(micro_db):
    micro_db.shard_table("micro", 4)
    micro_db.analyze()
    conn = micro_db.connect(cold=False)
    result = conn.run("SELECT * FROM micro WHERE c2 >= 0 AND c2 < "
                      f"{VALUE_DOMAIN}", cold=True, keep_rows=False)
    ops = list(result.plan.operators())
    exchange = next(op for op in ops if isinstance(op, Exchange))
    assert len([op for op in ops if isinstance(op, ShardedScan)]) == 4
    assert len(exchange.shard_ledgers) == 4
    decisions = result.plan.decisions()
    root = next(d for d in decisions if d.path == "exchange")
    assert {"exchange", "serial", "serial-union"} <= set(
        root.alternatives)
    shard_decisions = [d for d in decisions if d.shard is not None]
    assert sorted(d.shard for d in shard_decisions) == [
        f"micro#{i}" for i in range(4)
    ]
    # The cheaper-only guard: an exchange only exists because the model
    # priced it under the serial plan (and the serial union baseline is
    # reported alongside for the scaling experiments).
    assert root.alternatives["exchange"] < root.alternatives["serial"]


def test_planner_keeps_serial_plan_when_model_prefers_it(micro_db):
    micro_db.shard_table("micro", 4)
    micro_db.analyze()
    # Forcing a path or ordering the output always stays serial: a
    # forced sweep pins one exact plan, and a posterior Sort would
    # charge above the exchange, breaking shard-ledger conservation.
    for sql, options in (
        ("SELECT * FROM micro WHERE c2 >= 0 AND c2 < 99999",
         PlannerOptions(force_path="full")),
        ("SELECT * FROM micro WHERE c2 >= 0 AND c2 < 99999 "
         "ORDER BY c2", None),
    ):
        res = micro_db.connect(options=options, cold=False).run(
            sql, cold=True, keep_rows=False)
        assert not any(isinstance(op, Exchange)
                       for op in res.plan.operators())


def test_exchange_and_union_require_children():
    with pytest.raises(ExecutionError, match="at least one"):
        Exchange([])
    with pytest.raises(ExecutionError, match="at least one"):
        UnionAll([])


# -- the split admission verdict ---------------------------------------------


def test_split_verdict_rescues_over_budget_statements(micro_db):
    micro_db.shard_table("micro", 4)
    micro_db.analyze()
    options = PlannerOptions(enable_sort_scan=False,
                             shard_parallel=False)
    conn = micro_db.connect(options=options, cold=False)
    statement = conn.prepare(
        "SELECT * FROM micro WHERE c2 >= :lo AND c2 < :hi")
    statement.run({"lo": 0, "hi": 50}, cold=True, keep_rows=False)
    controller = AdmissionController(micro_db, sla_multiple=2.0,
                                     max_inflight=8)
    decision = controller.decide(
        conn, statement, {"lo": 0, "hi": round(0.6 * VALUE_DOMAIN)})
    assert decision.action == SPLIT
    assert decision.estimated_cost > decision.budget
    assert decision.split_estimate is not None
    assert decision.split_estimate <= decision.budget
    assert decision.admitted
    # The split connection is shared and prices == executes: the same
    # cached connection instance comes back for the same base options.
    first = controller.split_connection("micro", options)
    assert controller.split_connection("micro", options) is first


def test_no_split_without_a_shard_set(micro_db):
    options = PlannerOptions(enable_sort_scan=False,
                             shard_parallel=False)
    conn = micro_db.connect(options=options, cold=False)
    statement = conn.prepare(
        "SELECT * FROM micro WHERE c2 >= :lo AND c2 < :hi")
    statement.run({"lo": 0, "hi": 50}, cold=True, keep_rows=False)
    controller = AdmissionController(micro_db, sla_multiple=2.0,
                                     max_inflight=8)
    assert controller.split_connection("micro", options) is None
    decision = controller.decide(
        conn, statement, {"lo": 0, "hi": round(0.6 * VALUE_DOMAIN)})
    assert decision.action != SPLIT  # degraded or rejected, never split
    assert decision.action != ADMIT

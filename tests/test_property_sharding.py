"""Property tests for shard-parallel execution.

Two laws the exchange must obey under *any* partitioning and any
interleaving of concurrent sharded queries:

1. **Answer preservation** — for every scheme and shard count, the
   union of the per-shard scans returns exactly the serial plan's
   multiset of rows (order may differ: the exchange merges round-robin).
2. **Ledger conservation** — the per-shard attribution windows' ledgers
   sum to each query's own ledger with integer counters (pages, buffer
   hits/misses) exactly equal and the millisecond floats within 1e-9
   relative tolerance, however concurrent sharded cursors interleave;
   and the per-query ledgers still sum to the shared runtime totals.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.database import Database
from repro.exec.exchange import Exchange
from repro.optimizer.planner import PlannerOptions
from repro.runtime import CostLedger
from repro.storage.sharding import SHARD_SCHEMES
from repro.workloads.micro import VALUE_DOMAIN, build_micro_table

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_DB = None


def _micro_db() -> Database:
    """One shared 6,000-tuple micro database, re-sharded per example.

    Partitioning never mutates the base table (shards are separate
    heap/index copies dropped by ``unshard_table``), so reuse across
    hypothesis examples is sound and keeps the suite fast.
    """
    global _DB
    if _DB is None:
        db = Database()
        build_micro_table(db, num_tuples=6_000, seed=11)
        db.analyze()
        _DB = db
    return _DB


def _exchange_of(cursor) -> Exchange | None:
    return next((op for op in cursor._planned.operators()
                 if isinstance(op, Exchange)), None)


def _ledger_of(run) -> CostLedger:
    return run.ledger


SQL = "SELECT c1, c2 FROM micro WHERE c2 >= :lo AND c2 < :hi"


@given(
    num_shards=st.integers(min_value=2, max_value=6),
    scheme=st.sampled_from(SHARD_SCHEMES),
    lo_pct=st.floats(min_value=0.0, max_value=0.7),
    width_pct=st.floats(min_value=0.02, max_value=1.0),
)
@SETTINGS
def test_union_of_shards_matches_serial(num_shards, scheme, lo_pct,
                                        width_pct):
    db = _micro_db()
    db.shard_table("micro", num_shards, scheme=scheme, column="c2")
    try:
        lo = round(lo_pct * VALUE_DOMAIN)
        hi = round(min(1.0, lo_pct + width_pct) * VALUE_DOMAIN)
        params = {"lo": lo, "hi": hi}
        serial = db.connect(
            options=PlannerOptions(shard_parallel=False), cold=False
        ).run(SQL, params, cold=True)
        sharded = db.connect(cold=False).run(SQL, params, cold=True)
        assert Counter(serial.rows) == Counter(sharded.rows)
        assert serial.row_count == sharded.row_count
    finally:
        db.unshard_table("micro")


@given(
    num_shards=st.integers(min_value=2, max_value=5),
    scheme=st.sampled_from(SHARD_SCHEMES),
    order=st.lists(st.integers(min_value=0, max_value=1),
                   min_size=2, max_size=40),
)
@SETTINGS
def test_shard_ledgers_conserved_under_interleaving(num_shards, scheme,
                                                    order):
    """However two sharded cursors interleave, each query's summed
    shard ledgers reproduce its own ledger, and the query ledgers sum
    to the runtime totals — no charge lost or double-attributed."""
    db = _micro_db()
    db.shard_table("micro", num_shards, scheme=scheme, column="c2")
    try:
        db.runtime.cold_start()
        conn = db.connect(cold=False)
        cursors = [
            conn.cursor().execute(
                SQL, {"lo": 0, "hi": round(0.6 * VALUE_DOMAIN)}),
            conn.cursor().execute(
                SQL, {"lo": round(0.3 * VALUE_DOMAIN), "hi": VALUE_DOMAIN}),
        ]
        # Drain in the hypothesis-chosen interleave order, then finish.
        for pick in order:
            cursors[pick].fetchmany(64)
        for cursor in cursors:
            cursor.fetchall()
        summed_queries = CostLedger()
        for cursor in cursors:
            query_ledger = _ledger_of(cursor._run)
            summed_queries.add(query_ledger)
            exchange = _exchange_of(cursor)
            assert exchange is not None  # 60%+ ranges must go wide
            shard_sum = CostLedger()
            for ledger in exchange.shard_ledgers:
                shard_sum.add(ledger)
            # Every counter exactly, so the milliseconds to the bit.
            assert shard_sum == query_ledger
            assert shard_sum.total_ms == query_ledger.total_ms
        totals = db.runtime.totals()
        assert summed_queries == totals
        assert totals.disk.pages_read > 0  # the property is not vacuous
    finally:
        db.unshard_table("micro")

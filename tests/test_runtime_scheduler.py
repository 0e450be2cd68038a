"""Shared runtime + per-query ledgers + the cooperative scheduler.

The contracts of the substrate split: interleaved queries report
correct isolated costs (ledgers), summed ledgers reproduce the shared
totals (conservation), cold starts refuse to reset caches under a live
cursor (the documented footgun, now guarded), cold-run reset semantics
live in one place (EngineRuntime.cold_start), and the deterministic
scheduler interleaves N clients with round-robin / weighted policies.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.database import Database
from repro.errors import ExecutionError
from repro.exec.expressions import Between, KeyRange
from repro.exec.scans import FullTableScan, IndexScan
from repro.exec.scheduler import CooperativeScheduler, WorkloadClient
from repro.exec.stats import StreamingRun, measure
from repro.runtime import CostLedger
from repro.storage.types import Schema
from repro.workloads.micro import build_micro_table

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)


@pytest.fixture()
def micro_db():
    db = Database()
    build_micro_table(db, num_tuples=6_000, seed=3)
    db.analyze()
    return db


def _plans(db, n):
    """n different scans over the micro table (mixed access patterns)."""
    table = db.table("micro")
    plans = []
    for i in range(n):
        if i % 2 == 0:
            plans.append(FullTableScan(
                table, Between("c2", 0, 20_000 + 7_000 * i, True, False)))
        else:
            plans.append(IndexScan(
                table, "c2", KeyRange(0, 4_000 + 2_000 * i, True, False)))
    return plans


# -- ledger isolation ---------------------------------------------------------


def test_untouched_run_ledger_stays_zero(micro_db):
    micro_db.cold_run()
    a = StreamingRun(micro_db, _plans(micro_db, 1)[0], cold=False)
    b = StreamingRun(micro_db, _plans(micro_db, 2)[1], cold=False)
    while a.next_batch() is not None:
        pass
    # b never pulled a batch: none of a's charges leaked into it.
    assert b.result().total_ms == 0.0
    assert b.result().disk.pages_read == 0
    assert a.result().total_ms > 0.0
    b.close()


def test_interleaved_cursors_isolated_and_conserved(micro_db):
    micro_db.runtime.cold_start()
    base = micro_db.runtime.totals()
    assert base.total_ms == 0.0
    conn = micro_db.connect(cold=False)
    c1 = conn.execute("SELECT * FROM micro WHERE c2 < 50000")
    c2 = conn.execute("SELECT * FROM micro WHERE c2 >= 50000")
    # Interleave fetches; both drain fully.
    while True:
        r1 = c1.fetchmany(100)
        r2 = c2.fetchmany(100)
        if not r1 and not r2:
            break
    done1, done2 = c1.result().run, c2.result().run
    assert not done1.extras["partial"] and not done2.extras["partial"]
    assert done1.row_count + done2.row_count == 6_000
    # Conservation: the two ledgers sum to the shared totals.
    summed = CostLedger()
    for run in (done1, done2):
        summed.add(run.ledger)
    assert summed == micro_db.runtime.totals()
    assert summed.total_ms == micro_db.runtime.totals().total_ms


def test_single_query_streaming_identical_to_measure(micro_db):
    plan = _plans(micro_db, 1)[0]
    one_shot = measure(micro_db, plan, cold=True, keep_rows=False)
    run = StreamingRun(micro_db, _plans(micro_db, 1)[0], cold=True)
    while run.next_batch() is not None:
        pass
    streamed = run.result()
    assert streamed.total_ms == one_shot.total_ms
    assert streamed.io_ms == one_shot.io_ms
    assert streamed.cpu_ms == one_shot.cpu_ms
    assert streamed.disk.requests == one_shot.disk.requests
    assert streamed.buffer_misses == one_shot.buffer_misses


@given(order=st.lists(st.integers(min_value=0, max_value=3),
                      min_size=4, max_size=60))
@SETTINGS
def test_ledger_conservation_under_arbitrary_interleaving(order):
    """Property: however N queries interleave, charges are conserved.

    Sum of per-query ledgers (io_ms, cpu_ms, page reads, buffer
    hits/misses) equals the shared runtime totals — no charge lost or
    double-attributed.
    """
    db = Database()
    db.load_table("t", Schema.of_ints(["a", "b"]),
                  [(i, i % 97) for i in range(3_000)])
    db.create_index("t", "b")
    db.runtime.cold_start()
    table = db.table("t")
    runs = [
        StreamingRun(db, FullTableScan(table), cold=False),
        StreamingRun(db, IndexScan(table, "b", KeyRange(0, 50, True, False)),
                     cold=False),
        StreamingRun(db, FullTableScan(
            table, Between("b", 10, 60, True, True)), cold=False),
        StreamingRun(db, IndexScan(table, "b", KeyRange(40, 97, True, False)),
                     cold=False),
    ]
    # Drain in the hypothesis-chosen interleave order, then finish all.
    for pick in order:
        runs[pick].next_batch()
    for run in runs:
        while run.next_batch() is not None:
            pass
    summed = CostLedger()
    for run in runs:
        summed.add(run.ledger)
    totals = db.runtime.totals()
    assert summed == totals
    # And the integer counters really moved (the property is not vacuous).
    assert totals.disk.pages_read > 0
    assert summed.buffer_hits + summed.buffer_misses > 0


# -- the cold-run footgun, guarded -------------------------------------------


def test_cold_run_while_stream_live_raises(micro_db):
    conn = micro_db.connect(cold=False)
    cursor = conn.execute("SELECT * FROM micro")
    cursor.fetchmany(5)  # live, partially drained
    with pytest.raises(ExecutionError, match="still live"):
        micro_db.cold_run()
    with pytest.raises(ExecutionError, match="still live"):
        micro_db.execute(micro_db.query("micro"), cold=True)
    # Cold *cursor executions* hit the same guard through the session.
    with pytest.raises(ExecutionError, match="still live"):
        micro_db.connect(cold=True).execute("SELECT * FROM micro")
    # Warm execution is fine — that is what concurrency looks like.
    assert micro_db.execute(micro_db.query("micro").limit(3),
                            cold=False).row_count == 3
    cursor.close()
    micro_db.cold_run()  # closed: the guard is released


def test_draining_releases_the_cold_guard(micro_db):
    run = StreamingRun(micro_db, _plans(micro_db, 1)[0], cold=True)
    assert micro_db.runtime.live_streams == (run,)
    while run.next_batch() is not None:
        pass
    assert micro_db.runtime.live_streams == ()
    micro_db.cold_run()


def test_abandoned_cursor_does_not_block_cold_runs(micro_db):
    conn = micro_db.connect(cold=False)
    cursor = conn.execute("SELECT * FROM micro")
    cursor.fetchmany(5)
    del cursor  # dropped undrained, never closed — unreachable
    micro_db.cold_run()  # must not raise


def test_crashed_plan_releases_the_cold_guard(micro_db):
    class Exploding(FullTableScan):
        def batches(self, ctx):
            yield from ()
            raise RuntimeError("boom")

    run = StreamingRun(micro_db, Exploding(micro_db.table("micro")),
                       cold=True)
    with pytest.raises(RuntimeError, match="boom"):
        run.next_batch()
    assert micro_db.runtime.live_streams == ()
    micro_db.cold_run()  # a corpse must not block cold starts


# -- runtime reset semantics --------------------------------------------------


def test_cold_start_owns_all_reset_semantics(micro_db):
    ctx = micro_db.context()
    ctx.get_page(micro_db.table("micro").heap, 0)
    assert micro_db.clock.total_ms > 0
    assert len(micro_db.buffer) > 0
    # SimulatedDisk.reset() clears only the disk's own accounting.
    micro_db.disk.reset()
    assert micro_db.disk.stats.pages_read == 0
    assert micro_db.clock.total_ms > 0  # the clock is not the disk's
    # cold_start resets buffer, disk and clock together.
    micro_db.runtime.cold_start()
    assert micro_db.clock.total_ms == 0
    assert len(micro_db.buffer) == 0
    assert micro_db.buffer.stats.hits == micro_db.buffer.stats.misses == 0


def test_attribution_windows_cannot_nest(micro_db):
    runtime = micro_db.runtime
    # repro: allow[RPL103] -- deliberately left open to assert the
    # nesting/cold-start rejections; closed four lines down
    runtime.begin_attribution(CostLedger())
    with pytest.raises(ExecutionError, match="already open"):
        # repro: allow[RPL103] -- must raise, never opens
        runtime.begin_attribution(CostLedger())
    with pytest.raises(ExecutionError, match="attribution window"):
        runtime.cold_start()
    runtime.end_attribution()
    with pytest.raises(ExecutionError, match="no attribution window"):
        runtime.end_attribution()


# -- the cooperative scheduler ------------------------------------------------


def _schedule(db, statement, params_per_client, weights=None):
    scheduler = CooperativeScheduler(db)
    for i, stream in enumerate(params_per_client):
        weight = weights[i] if weights else 1
        client = WorkloadClient(f"c{i + 1}", weight=weight)
        for hi in stream:
            client.add_query(
                str(hi), lambda s=statement, p=(0, hi): s.execute(p))
        scheduler.add_client(client)
    return scheduler


@pytest.fixture()
def prepared(micro_db):
    conn = micro_db.connect(cold=False)
    return micro_db, conn.prepare(
        "SELECT * FROM micro WHERE c2 >= ? AND c2 < ?")


def test_scheduler_is_deterministic(prepared):
    db, statement = prepared
    streams = [[5_000, 60_000], [90_000], [30_000, 10_000]]
    first = _schedule(db, statement, streams).run(cold=True)
    second = _schedule(db, statement, streams).run(cold=True)
    assert [(r.client, r.label, r.rows, r.start_ms, r.finish_ms)
            for r in first.records] == \
        [(r.client, r.label, r.rows, r.start_ms, r.finish_ms)
         for r in second.records]
    assert first.p99_ms == second.p99_ms
    assert first.total_ledger() == second.total_ledger()


def test_scheduler_conserves_ledgers(prepared):
    db, statement = prepared
    report = _schedule(
        db, statement, [[50_000, 2_000], [80_000], [20_000]],
    ).run(cold=True)
    assert report.total_ledger() == db.runtime.totals()
    assert len(report.records) == 4
    assert report.throughput_qps > 0


def test_serial_and_contended_same_rows(prepared):
    db, statement = prepared
    streams = [[40_000], [70_000], [15_000]]
    serial = _schedule(db, statement, streams).run(cold=True,
                                                   interleave=False)
    contended = _schedule(db, statement, streams).run(cold=True)
    assert serial.rows == contended.rows
    assert sorted(r.label for r in serial.records) == \
        sorted(r.label for r in contended.records)
    # Serial runs client i to completion before client i+1 starts.
    assert [r.client for r in serial.records] == ["c1", "c2", "c3"]


def test_weighted_client_finishes_first(prepared):
    db, statement = prepared
    # Same query for both clients; the weight-4 client gets 4 batches
    # per round-robin visit and must drain first.
    report = _schedule(db, statement, [[80_000], [80_000]],
                       weights=[1, 4]).run(cold=True)
    finish = {r.client: r.finish_ms for r in report.records}
    assert finish["c2"] < finish["c1"]


def test_scheduler_rejects_explain_and_bad_args(prepared):
    db, statement = prepared
    scheduler = CooperativeScheduler(db)
    conn = db.connect(cold=False)
    scheduler.client("c1").add_query(
        "explain", lambda: conn.execute("EXPLAIN SELECT * FROM micro"))
    with pytest.raises(ExecutionError, match="EXPLAIN"):
        scheduler.run()
    with pytest.raises(ValueError, match="weight"):
        WorkloadClient("w", weight=0)
    with pytest.raises(ValueError, match="quantum"):
        CooperativeScheduler(db, quantum=0)


def test_add_client_rejects_non_positive_weight(prepared):
    """Registration re-validates the weight: a client whose weight was
    mutated to zero after construction would be granted zero-batch
    slices forever — run() would spin without draining its queue."""
    db, _statement = prepared
    scheduler = CooperativeScheduler(db)
    sneaky = WorkloadClient("sneaky", weight=2)
    sneaky.weight = 0
    with pytest.raises(ExecutionError, match="'sneaky'"):
        scheduler.add_client(sneaky)
    assert scheduler.run().records == []  # nothing was admitted
    negative = WorkloadClient("negative")
    negative.weight = -3
    with pytest.raises(ExecutionError, match="-3"):
        scheduler.add_client(negative)


def test_scheduler_latencies_show_contention(prepared):
    db, statement = prepared
    streams = [[80_000], [80_000], [80_000], [80_000]]
    serial = _schedule(db, statement, streams).run(cold=True,
                                                   interleave=False)
    contended = _schedule(db, statement, streams).run(cold=True)
    # Time-sharing one engine: everyone's response time includes the
    # others' interleaved work, so contended mean latency grows.
    assert contended.mean_ms > serial.mean_ms
    # ...but the *last* finisher cannot beat the serial makespan by
    # much and the makespans stay in the same regime (same total work).
    assert contended.makespan_ms == pytest.approx(serial.makespan_ms,
                                                  rel=0.5)


# -- ledger algebra -----------------------------------------------------------


def test_cost_ledger_snapshot_add_matches():
    # 1.5 ms of sequential pages (units of 0.5) and 0.5 ms of inspects.
    units = (0.25,) * 9 + (0.5, 5.0)
    a = CostLedger(counts={1: [2] + [0] * 8 + [3, 0]}, units=units,
                   buffer_hits=3, buffer_misses=1)
    a.disk.pages_read = 7
    b = a.snapshot()
    assert b == a
    b.add(a)
    assert b.io_ms == 3.0 and b.disk.pages_read == 14
    assert b != a
    assert a.total_ms == 2.0
    assert "CostLedger" in repr(a)


# -- the concurrency experiment (reduced scale) -------------------------------


def test_concurrency_experiment_deterministic_and_divergent():
    from repro.experiments.concurrency import run_concurrent_workload

    first = run_concurrent_workload(num_tuples=12_000, num_clients=3)
    second = run_concurrent_workload(num_tuples=12_000, num_clients=3)
    # Fully simulated, fully deterministic: byte-identical reports.
    assert first.report() == second.report()
    assert first.conservation_ok
    # The robustness story survives the reduced scale.
    assert first.p99_divergence > 5.0
    assert first.smooth.degradation <= 3 + 1
    assert "ledger conservation: exact" in first.report()
    assert "divergence under contention" in first.report()


def test_rerunning_a_drained_schedule_raises(prepared):
    db, statement = prepared
    scheduler = _schedule(db, statement, [[10_000]])
    scheduler.run(cold=True)
    with pytest.raises(ExecutionError, match="already drained"):
        scheduler.run(cold=True, interleave=False)
    # A scheduler with no clients at all still returns an empty report.
    empty = CooperativeScheduler(db).run()
    assert empty.records == [] and empty.throughput_qps == 0.0

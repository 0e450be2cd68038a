"""The sans-IO serving session: frames in, frames out, slots rationed.

Everything here drives :meth:`ServerSession.handle` with plain dict
frames — exactly what both transports (asyncio sockets and the
in-process benchmark loop) do — so the protocol behavior asserted here
is the serving behavior everywhere.
"""

import pytest

from repro.database import Database
from repro.experiments.concurrency import CLASSIC_OPTIONS
from repro.runtime import CostLedger
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.protocol import ProtocolError
from repro.server.session import ServerFront
from repro.workloads.micro import build_micro_table

NUM_TUPLES = 12_000

SQL = "SELECT c1, c2 FROM micro WHERE c2 >= :lo AND c2 < :hi"


@pytest.fixture()
def db():
    db = Database()
    build_micro_table(db, num_tuples=NUM_TUPLES, seed=7)
    db.analyze()
    return db


def make_front(db, max_inflight=4, **kwargs):
    return ServerFront(
        db, options=CLASSIC_OPTIONS,
        admission=AdmissionController(db, max_inflight=max_inflight),
        **kwargs,
    )


def one(frames):
    assert len(frames) == 1, frames
    return frames[0]


def test_hello_announces_protocol_and_limits(db):
    front = make_front(db)
    session = front.session()
    hello = session.hello()
    assert hello["op"] == "hello"
    assert hello["protocol"] == protocol.PROTOCOL_VERSION
    assert hello["max_inflight"] == 4
    assert front.sessions == 1


def test_prepare_execute_fetch_close_round_trip(db):
    front = make_front(db, rows_per_frame=64)
    session = front.session()
    prepared = one(session.handle({"op": "prepare", "id": 1, "sql": SQL}))
    assert prepared["op"] == "prepared"
    assert prepared["params"] == 2
    assert sorted(prepared["param_names"]) == ["hi", "lo"]

    executing = one(session.handle(
        {"op": "execute", "id": 2, "statement": prepared["statement"],
         "params": {"lo": 0, "hi": 100}}))
    assert executing["op"] == "executing"
    assert executing["admission"]["action"] == "admit"
    assert executing["admission"]["queued_ms"] == 0.0
    assert [name for name, _type in executing["description"]] == \
        ["c1", "c2"]
    assert front.inflight == 1

    rows, done_frame = [], None
    while done_frame is None:
        frame = one(session.handle(
            {"op": "fetch", "id": 3, "cursor": executing["cursor"]}))
        assert frame["op"] == "rows"
        rows.extend(frame["rows"])
        if frame["done"]:
            done_frame = frame
    assert all(0 <= c2 < 100 for _c1, c2 in rows)
    summary = done_frame["summary"]
    assert summary["rows"] == len(rows)
    assert summary["partial"] is False
    # The measurement travels as a full ledger: a client can rebuild
    # it and the charges reproduce the engine's accounting.
    rebuilt = CostLedger.from_dict(summary["ledger"])
    assert rebuilt == db.runtime.totals()
    assert rebuilt.total_ms == db.runtime.totals().total_ms
    # The slot came back when the stream finished.
    assert front.inflight == 0


def test_query_is_execute_plus_drain(db):
    front = make_front(db, rows_per_frame=64)
    session = front.session()
    frames = session.handle(
        {"op": "query", "id": 1, "sql": SQL,
         "params": {"lo": 0, "hi": 300}})
    assert frames[0]["op"] == "executing"
    assert all(f["op"] == "rows" for f in frames[1:])
    assert frames[-1]["done"] and "summary" in frames[-1]
    assert sum(len(f["rows"]) for f in frames[1:]) == \
        frames[-1]["summary"]["rows"]


def test_close_reports_partial_summary_and_frees_slot(db):
    front = make_front(db, rows_per_frame=16)
    session = front.session()
    executing = one(session.handle(
        {"op": "execute", "id": 1, "sql": SQL,
         "params": {"lo": 0, "hi": 50_000}}))
    one(session.handle(
        {"op": "fetch", "id": 2, "cursor": executing["cursor"], "n": 16}))
    closed = one(session.handle(
        {"op": "close", "id": 3, "cursor": executing["cursor"]}))
    assert closed["op"] == "closed"
    assert closed["summary"]["partial"] is True
    assert closed["summary"]["rows"] >= 16
    assert front.inflight == 0


def test_explain_runs_without_admission_or_slot(db):
    front = make_front(db)
    session = front.session()
    frames = session.handle(
        {"op": "query", "id": 1, "sql": "EXPLAIN " + SQL,
         "params": {"lo": 0, "hi": 100}})
    assert frames[0]["admission"] is None
    assert front.inflight == 0
    assert front.admission.stats.decided == 0
    assert frames[-1]["summary"] == {
        "rows": frames[-1]["summary"]["rows"], "partial": False}
    assert frames[-1]["summary"]["rows"] > 0


def test_structured_errors_do_not_kill_the_session(db):
    front = make_front(db)
    session = front.session()
    bad_sql = one(session.handle(
        {"op": "query", "id": 1, "sql": "SELEKT zilch"}))
    assert (bad_sql["op"], bad_sql["code"]) == ("error", "sql_error")
    missing_stmt = one(session.handle(
        {"op": "execute", "id": 2, "statement": 99}))
    assert missing_stmt["code"] == protocol.ERR_STATEMENT_MISSING
    missing_cursor = one(session.handle(
        {"op": "fetch", "id": 3, "cursor": 99}))
    assert missing_cursor["code"] == protocol.ERR_CURSOR_MISSING
    malformed = one(session.handle({"op": "fetch", "id": 4}))
    assert malformed["code"] == protocol.ERR_BAD_FRAME
    unknown = one(session.handle({"op": "mystery", "id": 5}))
    assert unknown["code"] == protocol.ERR_UNKNOWN_OP
    # After all of that the session still serves queries.
    frames = session.handle({"op": "query", "id": 6, "sql": SQL,
                             "params": {"lo": 0, "hi": 100}})
    assert frames[-1]["done"]


def test_rejection_carries_the_priced_decision(db):
    front = make_front(db)
    session = front.session()
    error = one(session.handle(
        {"op": "query", "id": 1,
         "sql": "SELECT /*+ force_path(index) */ * FROM micro "
                "WHERE c2 < 50000"}))
    assert (error["op"], error["code"]) == ("error", "rejected")
    detail = error["detail"]
    assert detail["action"] == "reject"
    assert detail["estimated_cost"] > detail["budget"]
    assert front.admission.stats.rejected == 1
    assert front.inflight == 0


def test_saturated_front_parks_then_pumps_fifo(db):
    front = make_front(db, max_inflight=1, rows_per_frame=32)
    granted = []
    first = front.session()
    second = front.session(sink=granted.append)
    third = front.session(sink=granted.append)

    running = one(first.handle(
        {"op": "execute", "id": "a", "sql": SQL,
         "params": {"lo": 0, "hi": 2_000}}))
    assert running["op"] == "executing"
    # The engine is saturated: the next two admitted requests park (no
    # response frames yet), FIFO order.
    assert second.handle({"op": "execute", "id": "b", "sql": SQL,
                          "params": {"lo": 0, "hi": 100}}) == []
    assert third.handle({"op": "execute", "id": "c", "sql": SQL,
                         "params": {"lo": 0, "hi": 100}}) == []
    assert front.queued == 2
    assert granted == []

    # Draining the running cursor releases the slot; the front pumps
    # the queue head (and only it — one slot) through the sink.
    while True:
        frame = one(first.handle(
            {"op": "fetch", "id": "a2", "cursor": running["cursor"]}))
        if frame["done"]:
            break
    assert [f["id"] for f in granted if f["op"] == "executing"] == ["b"]
    grant = granted[0]
    assert grant["admission"]["queued_ms"] > 0.0
    assert front.queued == 1

    # Closing the granted cursor cascades to the last queued request.
    second.handle({"op": "close", "id": "b2", "cursor": grant["cursor"]})
    assert [f["id"] for f in granted if f["op"] == "executing"] == \
        ["b", "c"]
    stats = front.admission.stats
    assert stats.queued == 2
    assert stats.queue_wait_p99_ms > 0.0


def test_cancel_parked_withdraws_exactly_once(db):
    front = make_front(db, max_inflight=1)
    session = front.session()
    running = one(session.handle(
        {"op": "execute", "id": 1, "sql": SQL,
         "params": {"lo": 0, "hi": 2_000}}))
    assert session.handle({"op": "execute", "id": 2, "sql": SQL,
                           "params": {"lo": 0, "hi": 100}}) == []
    assert front.cancel_parked(session, 2) is True
    assert front.cancel_parked(session, 2) is False  # already withdrawn
    assert front.queued == 0
    # The freed slot does not start the cancelled request.
    session.handle({"op": "close", "id": 3, "cursor": running["cursor"]})
    assert front.inflight == 0


def test_shutdown_flushes_queue_and_refuses_new_work(db):
    front = make_front(db, max_inflight=1)
    flushed = []
    busy = front.session()
    waiting = front.session(sink=flushed.append)
    running = one(busy.handle(
        {"op": "execute", "id": 1, "sql": SQL,
         "params": {"lo": 0, "hi": 2_000}}))
    assert waiting.handle({"op": "execute", "id": 2, "sql": SQL,
                           "params": {"lo": 0, "hi": 100}}) == []

    ack = one(busy.handle({"op": "shutdown", "id": 3}))
    assert ack["op"] == "shutting_down"
    assert front.draining
    # The parked request was flushed with a structured error...
    assert [f["code"] for f in flushed] == [protocol.ERR_SHUTTING_DOWN]
    # ...new statements are refused...
    refused = one(waiting.handle({"op": "execute", "id": 4, "sql": SQL,
                                  "params": {"lo": 0, "hi": 100}}))
    assert refused["code"] == protocol.ERR_SHUTTING_DOWN
    # ...but the in-flight cursor still drains gracefully.
    frame = one(busy.handle(
        {"op": "fetch", "id": 5, "cursor": running["cursor"], "n": 10}))
    assert frame["op"] == "rows"


def test_session_close_releases_slots_and_pumps_others(db):
    front = make_front(db, max_inflight=1)
    granted = []
    leaving = front.session()
    staying = front.session(sink=granted.append)
    one(leaving.handle({"op": "execute", "id": 1, "sql": SQL,
                        "params": {"lo": 0, "hi": 2_000}}))
    assert staying.handle({"op": "execute", "id": 2, "sql": SQL,
                           "params": {"lo": 0, "hi": 100}}) == []
    leaving.close()
    # The dropped client's slot went straight to the queued request.
    assert [f["op"] for f in granted] == ["executing"]
    assert front.sessions == 1
    with pytest.raises(ProtocolError):
        leaving.handle({"op": "stats", "id": 3})


def test_stats_frame_reports_front_state(db):
    front = make_front(db)
    session = front.session()
    session.handle({"op": "query", "id": 1, "sql": SQL,
                    "params": {"lo": 0, "hi": 100}})
    stats = one(session.handle({"op": "stats", "id": 2}))
    assert stats["admission"]["admitted"] == 1
    engine = stats["engine"]
    assert engine["sessions"] == 1
    assert engine["inflight"] == 0
    assert engine["queued"] == 0
    assert engine["draining"] is False
    assert engine["clock_ms"] > 0.0


def test_degraded_statements_share_one_connection(db):
    front = make_front(db)
    session = front.session()
    # Seed the cached recipe at tiny selectivity, then replay drifted:
    # both drifted replays degrade and run on the front's one shared
    # degraded connection (one plan-cache entry for all of them).
    session.handle({"op": "query", "id": 1, "sql": SQL,
                    "params": {"lo": 0, "hi": 50}})
    for rid, hi in ((2, 8_000), (3, 9_000)):
        frames = session.handle({"op": "query", "id": rid, "sql": SQL,
                                 "params": {"lo": 0, "hi": hi}})
        assert frames[0]["admission"]["action"] == "degrade"
        assert frames[-1]["done"]
    assert front.admission.stats.degraded == 2
    conn = front.degraded_connection("micro")
    assert front.degraded_connection("micro") is conn


def test_closed_connection_answers_interface_on_every_frame_type(db):
    """Satellite guarantee: session-layer misuse surfaces as the
    structured ``interface`` code for every request op — a client
    racing a connection close never sees ``internal``."""
    front = make_front(db)
    session = front.session()
    prepared = one(session.handle({"op": "prepare", "id": 1, "sql": SQL}))
    executing = session.handle({"op": "execute", "id": 2, "sql": SQL,
                                "params": {"lo": 0, "hi": 100}})[0]
    cid = executing["cursor"]
    session.conn.close()  # the engine connection dies under the session
    for _rid, frame in enumerate((
        {"op": "prepare", "id": 10, "sql": SQL},
        {"op": "execute", "id": 11, "sql": SQL,
         "params": {"lo": 0, "hi": 100}},
        {"op": "execute", "id": 12, "statement": prepared["statement"],
         "params": {"lo": 0, "hi": 100}},
        {"op": "query", "id": 13, "sql": SQL,
         "params": {"lo": 0, "hi": 100}},
        {"op": "fetch", "id": 14, "cursor": cid},
    )):
        response = one(session.handle(frame))
        assert response["op"] == "error", frame
        assert response["code"] == protocol.ERR_INTERFACE, frame
        assert "closed" in response["message"], frame
    # The session itself survives: stats still answers.
    assert one(session.handle({"op": "stats", "id": 20}))["op"] == "stats"


def test_closed_cursor_fetch_is_an_interface_error(db):
    front = make_front(db)
    session = front.session()
    executing = session.handle({"op": "execute", "id": 1, "sql": SQL,
                                "params": {"lo": 0, "hi": 100}})[0]
    cid = executing["cursor"]
    state = session._cursors[cid]
    state.cursor.close()  # underlying cursor dies, handle still live
    response = one(session.handle({"op": "fetch", "id": 2,
                                   "cursor": cid}))
    assert response["op"] == "error"
    assert response["code"] == protocol.ERR_INTERFACE


def test_stats_frame_carries_telemetry_and_plan_cache_gauges(db):
    db.tracer.enable()
    front = make_front(db)
    session = front.session()
    session.handle({"op": "query", "id": 1, "sql": SQL,
                    "params": {"lo": 0, "hi": 100}})
    stats = one(session.handle({"op": "stats", "id": 2}))
    telemetry = stats["telemetry"]
    assert telemetry["enabled"] is True
    assert telemetry["events_buffered"] > 0
    counters = telemetry["metrics"]["counters"]
    assert counters["queries_total"] == 1
    assert counters["admission_admits_total"] == 1
    gauges = telemetry["metrics"]["gauges"]
    # One source of truth: the gauges mirror PlanCache.stats_dict().
    for name, value in db.plan_cache.stats_dict().items():
        assert gauges[f"plan_cache_{name}"] == value


def test_admission_events_attribute_client_and_query_span(db):
    db.tracer.enable()
    front = make_front(db)
    session = front.session()
    session.handle({"op": "query", "id": 1, "sql": SQL,
                    "params": {"lo": 0, "hi": 50}})
    session.handle({"op": "query", "id": 2, "sql": SQL,
                    "params": {"lo": 0, "hi": 9_000}})  # drifted: degrades
    events = db.tracer.drain()
    admit = next(e for e in events if e.kind == "admission.admit")
    degrade = next(e for e in events if e.kind == "admission.degrade")
    assert admit.attrs["action"] == "admit"
    assert degrade.attrs["action"] == "degrade"
    for event in (admit, degrade):
        assert event.query_id >= 0
        start = next(e for e in events
                     if e.kind == "query.start"
                     and e.query_id == event.query_id)
        assert start.attrs["client"] == f"session-{session.id}"
        assert start.attrs["sql"] == SQL


def test_rejected_statement_emits_a_priced_trace_event(db):
    db.tracer.enable()
    front = make_front(db)
    session = front.session()
    error = one(session.handle(
        {"op": "query", "id": 1,
         "sql": "SELECT /*+ force_path(index) */ * FROM micro "
                "WHERE c2 < 50000"}))
    assert (error["op"], error["code"]) == ("error", "rejected")
    reject = next(e for e in db.tracer.drain()
                  if e.kind == "admission.reject")
    assert reject.attrs["action"] == "reject"
    assert reject.value == reject.attrs["estimated_cost"]
    assert reject.attrs["estimated_cost"] > reject.attrs["budget"]

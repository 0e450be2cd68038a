"""The fetch size never changes the answer or the bill.

A cursor fetch makes one ``StreamingRun.pull`` for the rows it lacks: the
plan advances until its batches hold that many rows, inside one
attribution window, and the cursor rowifies the joined chunk once.  How a
result is drained — a row at a time, 7 or 1024 rows at a time, all at
once, by iteration, by ``executemany``, or a batch per scheduler step —
must not move a row or a charge: every drain of one statement returns
the same rows and an ``==`` ledger (clock counts, disk and buffer
stats), across every forced access path, a sharded table under
``Exchange`` and ``LIMIT``.  Switch Scan, which SQL cannot force, is
drained by pulls of each size straight off its ``StreamingRun``.

A pull that raises mid-fetch leaves no window open and no stream live,
counts the rows of the batches it pulled before the error, and the next
cold statement on the same database reports the ledger a fresh database
reports.  Over the server protocol the same fault is an ``error`` frame
that hands the admission slot back and closes the cursor.
"""

from itertools import accumulate

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import StorageError
from repro.core.switch_scan import SwitchScan
from repro.exec.exchange import Exchange
from repro.exec.expressions import KeyRange
from repro.exec.iterator import Chunk
from repro.exec.misc import Limit
from repro.exec.scheduler import CooperativeScheduler
from repro.exec.stats import StreamingRun, measure
from repro.optimizer.planner import FORCEABLE_PATHS
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.session import ServerFront
from repro.workloads.micro import VALUE_DOMAIN, build_micro_table

NUM_TUPLES = 6_000
PATHS = FORCEABLE_PATHS

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _micro(shards=0):
    db = Database()
    build_micro_table(db, num_tuples=NUM_TUPLES, seed=13)
    db.analyze()
    if shards:
        db.shard_table("micro", shards)
    return db


@pytest.fixture(scope="module")
def plain():
    return _micro()


@pytest.fixture(scope="module")
def sharded():
    return _micro(shards=3)


def _sql(path, limit):
    hint = f"/*+ force_path({path}) */ " if path else ""
    sql = f"SELECT {hint}c1, c2 FROM micro WHERE c2 >= :lo AND c2 < :hi"
    return sql if limit is None else f"{sql} LIMIT {limit}"


def _fetch_by(size):
    def drain(cursor):
        rows = []
        while part := cursor.fetchmany(size):
            rows += part
        return rows
    return drain


def _fetchone(cursor):
    rows = []
    while (row := cursor.fetchone()) is not None:
        rows.append(row)
    return rows


CURSOR_DRAINS = {
    "fetchone": _fetchone,
    "fetchmany(1)": _fetch_by(1),
    "fetchmany(7)": _fetch_by(7),
    "fetchmany(1024)": _fetch_by(1024),
    "fetchall": lambda cursor: cursor.fetchall(),
    "iteration": list,
}


def _drains(db, sql, params):
    """``{drain: (rows or row count, ledger)}`` for one statement, each
    drain on a fresh cold cursor."""
    conn = db.connect()
    out = {}
    for name, drain in CURSOR_DRAINS.items():
        cursor = conn.cursor().execute(sql, params)
        rows = drain(cursor)
        assert cursor.rowcount == len(rows) == cursor.stream.rows_produced
        assert cursor.stream.exhausted
        out[name] = (rows, cursor.result().run.ledger)
    # executemany keeps no rows; a cold run is the only charge since its
    # cold start, so the runtime totals are its ledger.
    cursor = conn.cursor().executemany(sql, [params])
    out["executemany"] = (cursor.rowcount, db.runtime.totals())
    # The scheduler drains a batch per step and buffers nothing.
    scheduler = CooperativeScheduler(db)
    scheduler.client("only").add_query(
        "q", lambda: conn.cursor().execute(sql, params))
    record, = scheduler.run().records
    out["scheduler"] = (record.rows, record.ledger)
    return out


def _assert_one_answer_one_bill(drains):
    rows, ledger = drains["fetchall"]
    for name, (got, got_ledger) in drains.items():
        want = len(rows) if isinstance(got, int) else rows
        assert got == want, name
        assert got_ledger == ledger, name


_SELECTIVITY = st.sampled_from([0.0005, 0.005, 0.02, 0.2, 1.0])
_LIMIT = st.one_of(st.none(), st.sampled_from([1, 7, 100, 1500]))


@given(path=st.sampled_from(PATHS), fraction=_SELECTIVITY,
       start=st.floats(min_value=0.0, max_value=0.5), limit=_LIMIT)
@SETTINGS
def test_every_drain_of_a_forced_path_is_one_answer_and_one_bill(
        plain, path, fraction, start, limit):
    lo = int(start * VALUE_DOMAIN)
    params = {"lo": lo, "hi": lo + max(1, int(fraction * VALUE_DOMAIN))}
    _assert_one_answer_one_bill(_drains(plain, _sql(path, limit), params))


@given(fraction=_SELECTIVITY, start=st.floats(min_value=0.0, max_value=0.5),
       limit=_LIMIT)
@SETTINGS
def test_every_drain_of_a_sharded_scan_is_one_answer_and_one_bill(
        sharded, fraction, start, limit):
    lo = int(start * VALUE_DOMAIN)
    params = {"lo": lo, "hi": lo + max(1, int(fraction * VALUE_DOMAIN))}
    sql = _sql(None, limit)
    cursor = sharded.connect().execute(sql, params)
    assert any(isinstance(op, Exchange) for op in cursor.plan.operators())
    cursor.close()
    _assert_one_answer_one_bill(_drains(sharded, sql, params))


def _pulled_by(size):
    def drain(run):
        batches = []
        while part := run.pull(size):
            batches += part
        return batches
    return drain


RUN_DRAINS = {
    "next_batch": lambda run: list(iter(run.next_batch, None)),
    "pull(1)": _pulled_by(1),
    "pull(7)": _pulled_by(7),
    "pull(1024)": _pulled_by(1024),
    "pull()": lambda run: run.pull(),
}


@given(fraction=_SELECTIVITY, start=st.floats(min_value=0.0, max_value=0.5),
       threshold=st.sampled_from([0, 5, 60]), limit=_LIMIT)
@SETTINGS
def test_every_pull_size_of_a_switch_scan_is_one_answer_and_one_bill(
        plain, fraction, start, threshold, limit):
    lo = int(start * VALUE_DOMAIN)
    key_range = KeyRange(lo, lo + max(1, int(fraction * VALUE_DOMAIN)))

    def plan():
        scan = SwitchScan(plain.table("micro"), "c2", key_range,
                          threshold=threshold)
        return scan if limit is None else Limit(scan, limit)

    want = measure(plain, plan())
    for name, drain in RUN_DRAINS.items():
        run = StreamingRun(plain, plan())
        batches = drain(run)
        rows = Chunk.concat(batches).to_rows() if batches else []
        assert run.exhausted and run.rows_produced == len(rows), name
        assert rows == want.rows and run.ledger == want.ledger, name


# -- one fetch, one window ----------------------------------------------------


def _count_windows(monkeypatch, runtime):
    opened = []
    begin = runtime.begin_attribution

    def counted(ledger):
        opened.append(ledger)
        begin(ledger)

    monkeypatch.setattr(runtime, "begin_attribution", counted)
    return opened


@pytest.mark.parametrize("path", ["sort", "full", None])
def test_one_fetchmany_opens_exactly_one_attribution_window(
        plain, sharded, monkeypatch, path):
    db = sharded if path is None else plain
    sql = _sql(path, None)
    params = {"lo": 0, "hi": 2_000 if path == "sort" else 20_000}
    conn = db.connect()
    run = conn.execute(sql, params).stream
    sizes = []
    while (batch := run.next_batch()) is not None:
        sizes.append(len(batch))
    assert len(sizes) >= 3, "the statement must span several batches"

    opened = _count_windows(monkeypatch, db.runtime)
    cursor = conn.cursor().execute(sql, params)
    half = sum(sizes) // 2
    assert len(cursor.fetchmany(half)) == half
    assert len(opened) == 1
    # Served from what the last pull buffered: no window at all.
    pulled = next(total for total in accumulate(sizes) if total >= half)
    if pulled > half:
        assert len(cursor.fetchmany(pulled - half)) == pulled - half
        assert len(opened) == 1
    # The rest, to the end of the plan, is one more window.
    assert len(cursor.fetchall()) == sum(sizes) - pulled
    assert len(opened) == 2 and cursor.rowcount == sum(sizes)


def test_a_full_scan_fetch_across_extents_stays_one_slice(plain):
    """Adjacent extents of a 100% full scan join into one ``range``
    selection: the fetch slices the image, it does not gather."""
    sql = _sql("full", None)
    params = {"lo": 0, "hi": VALUE_DOMAIN}
    cursor = plain.connect().execute(sql, params)
    rows = cursor.fetchmany(NUM_TUPLES - 1)
    assert type(cursor._batch.sel) is range
    assert len(cursor._batch) == NUM_TUPLES
    assert rows + cursor.fetchall() == plain.connect().execute(
        sql, params).fetchall()


# -- a pull that raises mid-fetch ---------------------------------------------


def _fail_on_read(monkeypatch, disk, k):
    real = disk.read_run
    calls = []

    def read_run(file_id, page_id, *args, **kwargs):
        calls.append(page_id)
        if len(calls) == k:
            raise StorageError(f"injected fault in read_run #{k}")
        return real(file_id, page_id, *args, **kwargs)

    monkeypatch.setattr(disk, "read_run", read_run)
    return calls


FULL = _sql("full", None)
EVERYTHING = {"lo": 0, "hi": VALUE_DOMAIN}


def test_a_pull_that_raises_on_the_third_batch_leaves_the_runtime_clean(
        monkeypatch):
    db = _micro()
    conn = db.connect()
    run = conn.execute(FULL, EVERYTHING).stream
    sizes = []
    while (batch := run.next_batch()) is not None:
        sizes.append(len(batch))
    assert len(sizes) > 3
    golden_rows = conn.execute(FULL, EVERYTHING).fetchall()
    golden = conn.execute(FULL, EVERYTHING)
    golden.fetchall()
    golden_ledger = golden.result().run.ledger

    db.tracer.enable()
    cursor = conn.cursor().execute(FULL, EVERYTHING)
    with monkeypatch.context() as patch:
        opened = _count_windows(patch, db.runtime)
        # One read_run per extent: the third read is the third batch.
        calls = _fail_on_read(patch, db.runtime.disk, 3)
        with pytest.raises(StorageError, match="injected"):
            cursor.fetchmany(NUM_TUPLES)
        assert len(calls) == 3 and len(opened) == 1
    runtime = db.runtime
    assert runtime._active is None and runtime._shard_active is None
    assert runtime.live_streams == ()
    stream = cursor.stream
    assert stream.closed and not stream.exhausted
    assert stream.rows_produced == sizes[0] + sizes[1]
    finish, = [e for e in db.tracer.events if e.kind == "query.finish"
               and e.query_id == stream.query_id]
    assert finish.attrs["partial"] and finish.attrs["error"] == "StorageError"
    assert finish.attrs["rows"] == sizes[0] + sizes[1]
    assert cursor.fetchmany(5) == []   # nothing half-pulled is handed out
    db.tracer.disable()

    # The next cold statement is the one a fresh database runs.
    again = conn.execute(FULL, EVERYTHING)
    assert again.fetchall() == golden_rows
    assert again.result().run.ledger == golden_ledger
    fresh = _micro().connect().execute(FULL, EVERYTHING)
    fresh.fetchall()
    assert fresh.result().run.ledger == golden_ledger


def test_a_pull_that_raises_mid_fetch_is_an_error_frame(monkeypatch):
    db = _micro()
    front = ServerFront(db, admission=AdmissionController(db),
                        rows_per_frame=NUM_TUPLES)
    session = front.session()
    executing, = session.handle({"op": "execute", "id": 1, "sql": FULL,
                                 "params": EVERYTHING})
    assert executing["op"] == "executing" and front.inflight == 1
    cid = executing["cursor"]
    cursor = session._cursors[cid].cursor
    with monkeypatch.context() as patch:
        _fail_on_read(patch, db.runtime.disk, 3)
        failed, = session.handle({"op": "fetch", "id": 2, "cursor": cid})
    assert failed["op"] == "error" and "injected" in failed["message"]
    assert front.inflight == 0
    assert cursor._closed and cursor.stream.closed
    assert session.conn.open_cursors == ()
    assert db.runtime.live_streams == () and db.runtime._active is None
    gone, = session.handle({"op": "fetch", "id": 3, "cursor": cid})
    assert gone["code"] == protocol.ERR_CURSOR_MISSING
    frames = session.handle({"op": "query", "id": 4, "sql": FULL,
                             "params": EVERYTHING})
    assert frames[-1]["done"]
    assert frames[-1]["summary"]["rows"] == NUM_TUPLES
    assert front.inflight == 0

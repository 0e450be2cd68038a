"""Connection / Cursor / PreparedStatement — the PEP-249 session layer.

Covers the acceptance bar of the API redesign: prepared statements
compile and plan exactly once across re-executions (counters), results
are measurement-identical to literal SQL, cursors
stream without materializing, and EXPLAIN is a structured result set.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.database import Database
from repro.errors import InterfaceError
from repro.exec.expressions import Between
from repro.optimizer.planner import PlannerOptions
from repro.storage.types import ColumnType
from repro.workloads.micro import build_micro_table


@pytest.fixture(scope="module")
def micro_db():
    db = Database()
    build_micro_table(db, num_tuples=24_000, seed=11)
    db.analyze()
    return db


@pytest.fixture()
def conn(micro_db):
    return micro_db.connect()


# -- cursors: execute + fetch -------------------------------------------------

def test_fetchall_matches_database_execute(micro_db, conn):
    cur = conn.execute("SELECT c1, c2 FROM micro WHERE c2 < 5000 "
                       "ORDER BY c2")
    rows = cur.fetchall()
    one_shot = micro_db.connect().run("SELECT c1, c2 FROM micro "
                                      "WHERE c2 < 5000 ORDER BY c2")
    assert rows == one_shot.rows
    assert cur.rowcount == len(rows)


def test_description_names_and_types(conn):
    cur = conn.execute("SELECT c1, c2 FROM micro WHERE c2 < 100")
    assert [d[0] for d in cur.description] == ["c1", "c2"]
    assert all(d[1] is ColumnType.INT for d in cur.description)
    assert all(len(d) == 7 for d in cur.description)


def test_fetchone_and_iteration(conn):
    cur = conn.execute("SELECT c1 FROM micro WHERE c2 < 300 ORDER BY c1")
    first = cur.fetchone()
    rest = list(cur)
    assert first is not None
    total = conn.run("SELECT c1 FROM micro WHERE c2 < 300").row_count
    assert 1 + len(rest) == total
    assert cur.fetchone() is None  # exhausted


def test_fetchmany_streams_incrementally(conn):
    cur = conn.cursor()
    cur.arraysize = 16
    cur.execute("SELECT * FROM micro")  # 24K-row full scan
    first = cur.fetchmany()
    assert len(first) == 16
    partial = cur.result()
    # Only the batches needed so far were pulled — nowhere near the
    # whole table (one heap page is 120 tuples; the buffered tail stays
    # far below the 24K total).
    assert partial.run.extras["partial"] is True
    assert 16 <= partial.row_count < 2_000
    assert cur.rowcount == -1  # unknown until drained
    cur.close()


def test_partial_measurement_grows_to_full(conn):
    cur = conn.execute("SELECT * FROM micro WHERE c2 < 50000")
    cur.fetchmany(10)
    early = cur.result()
    cur.fetchall()
    done = cur.result()
    assert early.run.extras["partial"] and not done.run.extras["partial"]
    assert early.total_ms <= done.total_ms
    assert early.disk.requests <= done.disk.requests
    # A fully-drained streaming run costs exactly what measure() charges.
    fresh = conn.run("SELECT * FROM micro WHERE c2 < 50000",
                     keep_rows=False)
    assert done.total_ms == fresh.total_ms
    assert done.disk.requests == fresh.disk.requests


def test_fetch_before_execute_raises(conn):
    cur = conn.cursor()
    with pytest.raises(InterfaceError, match="no statement"):
        cur.fetchall()


def test_closed_handles_refuse(micro_db):
    session = micro_db.connect()
    cur = session.cursor()
    cur.close()
    with pytest.raises(InterfaceError, match="cursor is closed"):
        cur.execute("SELECT * FROM micro")
    session.close()
    with pytest.raises(InterfaceError, match="connection is closed"):
        session.cursor()


def test_connection_context_manager_and_noop_txn(micro_db):
    with micro_db.connect() as session:
        session.commit()
        session.rollback()
    with pytest.raises(InterfaceError):
        session.commit()


# -- prepared statements ------------------------------------------------------

def test_prepared_compiles_and_plans_exactly_once(micro_db):
    session = micro_db.connect()
    compiles0 = micro_db.sql_compile_count
    stats = micro_db.plan_cache.stats
    hits0, misses0 = stats.hits, stats.misses

    st = session.prepare("SELECT * FROM micro WHERE c2 >= ? AND c2 < ?")
    assert micro_db.sql_compile_count == compiles0 + 1

    r1 = st.run((0, 120))
    r2 = st.run((0, 60_000))
    r3 = st.run((40_000, 90_000))
    assert micro_db.sql_compile_count == compiles0 + 1  # still one
    assert stats.misses == misses0 + 1                  # planned once
    assert stats.hits == hits0 + 2                      # replayed twice
    assert r1.row_count < r2.row_count
    assert r3.row_count > 0


def _assert_measurement_identical(prepared, literal):
    assert prepared.rows == literal.rows
    assert prepared.total_ms == literal.total_ms
    assert prepared.io_ms == literal.io_ms
    assert prepared.cpu_ms == literal.cpu_ms
    assert prepared.disk.requests == literal.disk.requests
    assert prepared.disk.bytes_read == literal.disk.bytes_read
    assert [d.path for d in prepared.decisions] \
        == [d.path for d in literal.decisions]


def test_prepared_results_measurement_identical_to_literal_sql(micro_db):
    # At the plan-caching execution the prepared path charges exactly
    # what literal SQL does: parameter plumbing is free.
    session = micro_db.connect()
    st = session.prepare("SELECT c1, c2 FROM micro "
                         "WHERE c2 >= ? AND c2 < ? ORDER BY c2")
    prepared = st.run((0, 120))
    literal = micro_db.connect().run("SELECT c1, c2 FROM micro WHERE c2 >= 0 "
                                     "AND c2 < 120 ORDER BY c2")
    _assert_measurement_identical(prepared, literal)


def test_prepared_smooth_measurement_identical_across_drift(micro_db):
    # Under enable_smooth the cached plan IS what a fresh plan would be
    # at every parameter value, so prepared re-execution stays
    # measurement-identical to literal SQL across the whole drift —
    # the statistics-oblivious property, visible through the API.
    session = micro_db.connect(
        options=PlannerOptions(enable_smooth=True)
    )
    st = session.prepare("SELECT c1, c2 FROM micro "
                         "WHERE c2 >= ? AND c2 < ? ORDER BY c2")
    for lo, hi in ((0, 120), (0, 60_000), (20_000, 20_500)):
        prepared = st.run((lo, hi))
        literal = session.run(
            f"SELECT c1, c2 FROM micro WHERE c2 >= {lo} "
            f"AND c2 < {hi} ORDER BY c2"
        )
        _assert_measurement_identical(prepared, literal)


def test_prepared_drifted_params_same_rows_cached_plan(micro_db):
    # At drifted parameter values the cached classic plan may legally
    # differ from what a fresh plan would pick — that divergence is the
    # paper's motivating scenario — but the *results* never differ.
    session = micro_db.connect()
    st = session.prepare("SELECT c1, c2 FROM micro "
                         "WHERE c2 >= ? AND c2 < ? ORDER BY c2")
    first = st.run((0, 120))
    drifted = st.run((0, 60_000))
    fresh = micro_db.execute(
        micro_db.query("micro")
        .where(Between("c2", 0, 60_000, True, False))
        .order_by("c2").select("c1", "c2")
    )
    assert drifted.rows == fresh.rows
    # The cached plan kept the first execution's access path.
    assert drifted.decisions[0].path == first.decisions[0].path


def test_prepared_named_params_via_cursor(conn):
    st = conn.prepare("SELECT count(*) AS n FROM micro "
                      "WHERE c2 >= :lo AND c2 < :hi")
    assert st.param_names == ("lo", "hi")
    [(n1,)] = st.execute({"lo": 0, "hi": 1000}).fetchall()
    [(n2,)] = st.execute({"lo": 0, "hi": 50_000}).fetchall()
    assert 0 < n1 < n2


def test_cache_hit_measurement_identical_to_miss(micro_db):
    # Same text + same catalog: the replayed plan must cost exactly what
    # the originally-planned one did.
    session = micro_db.connect()
    sql = "SELECT * FROM micro WHERE c2 BETWEEN 100 AND 4000"
    miss = session.run(sql, keep_rows=False)
    hit = session.run(sql, keep_rows=False)
    assert miss.total_ms == hit.total_ms
    assert miss.disk.requests == hit.disk.requests
    assert miss.row_count == hit.row_count
    assert [d.path for d in miss.decisions] == \
        [d.path for d in hit.decisions]
    # explain() output (estimates included) is also identical.
    assert miss.plan.render() == hit.plan.render()


def test_prepared_statement_rejects_foreign_database(micro_db):
    other = Database()
    build_micro_table(other, num_tuples=1_200)
    st = other.connect().prepare("SELECT * FROM micro")
    with pytest.raises(InterfaceError, match="different database"):
        micro_db.connect().cursor().execute(st)
    # Connection.run enforces the same boundary as Cursor.execute.
    with pytest.raises(InterfaceError, match="different database"):
        micro_db.connect().run(st)
    # Sharing across connections of the SAME database is allowed.
    assert micro_db.connect().run(
        micro_db.connect().prepare("SELECT count(*) AS n FROM micro")
    ).row_count == 1


def test_prepared_explain_plans_through_the_cache_and_runs_nothing(micro_db):
    """``PreparedStatement.explain(params)`` renders the tree ``execute``
    then runs for the same parameters, charges nothing and opens no query
    span; it is a plan-cache lookup like any other."""
    conn = micro_db.connect()
    st = conn.prepare("SELECT c1 FROM micro WHERE c2 >= :lo AND c2 < :hi "
                      "AND c3 >= 0")
    stats = micro_db.plan_cache.stats
    hits, misses = stats.hits, stats.misses
    totals = micro_db.runtime.totals()
    tracer = micro_db.tracer
    tracer.enable()
    try:
        tracer.drain()
        text = st.explain({"lo": 0, "hi": 300})
        assert [e.kind for e in tracer.drain()] == ["plan_cache.miss"]
        assert tracer.current_query_id == -1
    finally:
        tracer.disable()
    assert micro_db.runtime.totals() == totals
    assert (stats.hits, stats.misses) == (hits, misses + 1)
    assert st.explain({"lo": 0, "hi": 300}) == text
    assert (stats.hits, stats.misses) == (hits + 1, misses + 1)
    cur = st.execute({"lo": 0, "hi": 300})
    assert (stats.hits, stats.misses) == (hits + 2, misses + 1)
    assert cur.plan.render() == text
    cur.close()


# -- executemany --------------------------------------------------------------

def test_executemany_counts_all_rows(micro_db, conn):
    compiles0 = micro_db.sql_compile_count
    cur = conn.cursor()
    cur.executemany("SELECT * FROM micro WHERE c2 < ?",
                    [(100,), (200,), (400,)])
    assert micro_db.sql_compile_count == compiles0 + 1
    expected = sum(
        conn.run("SELECT * FROM micro WHERE c2 < ?", (hi,),
                 keep_rows=False).row_count
        for hi in (100, 200, 400)
    )
    assert cur.rowcount == expected


# -- EXPLAIN as a result set --------------------------------------------------

def test_explain_is_a_structured_result(conn):
    cur = conn.execute("EXPLAIN SELECT * FROM micro WHERE c2 < 2000")
    rows = cur.fetchall()
    assert cur.description[0][0] == "plan"
    assert cur.rowcount == len(rows)
    assert all(len(r) == 1 for r in rows)
    assert rows[0][0].startswith("-> ")
    assert rows[-1][0].startswith("plan cache: ")
    assert cur.result() is None  # nothing executed


def test_explain_surfaces_cache_status(conn):
    sql = "EXPLAIN SELECT * FROM micro WHERE c2 < 3333"
    first = conn.execute(sql).fetchall()[-1][0]
    second = conn.execute(sql).fetchall()[-1][0]
    assert first.startswith("plan cache: miss")
    assert second.startswith("plan cache: hit")


# -- options and hints --------------------------------------------------------

def test_session_options_and_hints_compose(micro_db):
    session = micro_db.connect(
        options=PlannerOptions(enable_smooth=True)
    )
    smooth = session.run("SELECT * FROM micro WHERE c2 < 2000",
                         keep_rows=False)
    assert smooth.decisions[0].path == "smooth"
    forced = session.run(
        "SELECT /*+ force_path(full) */ * FROM micro WHERE c2 < 2000",
        keep_rows=False,
    )
    assert forced.decisions[0].path == "full"


def test_different_options_do_not_share_cache_entries(micro_db):
    sql = "SELECT * FROM micro WHERE c2 < 777"
    plain = micro_db.connect().run(sql, keep_rows=False)
    smooth = micro_db.connect(
        options=PlannerOptions(enable_smooth=True)
    ).run(sql, keep_rows=False)
    assert plain.decisions[0].path != "smooth"
    assert smooth.decisions[0].path == "smooth"


# -- connection lifecycle: cursors close with the session ---------------------

def _fresh_db(num_tuples=12_000):
    db = Database()
    build_micro_table(db, num_tuples=num_tuples, seed=11)
    db.analyze()
    return db


def test_cursor_context_manager_closes(conn):
    with conn.cursor() as cur:
        cur.execute("SELECT c1 FROM micro WHERE c2 < 200")
        assert cur.fetchone() is not None
    with pytest.raises(InterfaceError, match="cursor is closed"):
        cur.fetchall()


def test_connection_close_closes_live_streaming_cursors():
    db = _fresh_db()
    session = db.connect(cold=False)
    first = session.execute("SELECT * FROM micro WHERE c2 < 50000")
    second = session.execute("SELECT * FROM micro WHERE c2 >= 50000")
    first.fetchmany(100)
    assert len(session.open_cursors) == 2
    session.close()
    # Both runs were abandoned mid-stream, not leaked: the engine
    # accepts a cold start again (which refuses while streams live).
    assert first.stream.closed and second.stream.closed
    assert not first.stream.exhausted
    db.cold_run()
    with pytest.raises(InterfaceError, match="cursor is closed"):
        first.fetchall()


def test_connection_close_finalizes_ledgers_exactly():
    from repro.runtime import CostLedger

    db = _fresh_db()
    session = db.connect(cold=False)
    cursors = [session.execute("SELECT * FROM micro WHERE c2 < 50000"),
               session.execute("SELECT * FROM micro WHERE c2 >= 50000")]
    for cur in cursors:
        cur.fetchmany(100)
    ledgers = [cur.stream.ledger for cur in cursors]
    session.close()
    # Even for half-drained streams, every charge the session caused
    # is attributed to exactly one cursor ledger: their sum reproduces
    # the runtime totals exactly.
    summed = CostLedger()
    for ledger in ledgers:
        summed.add(ledger)
    assert summed == db.runtime.totals()


def test_open_cursors_prunes_closed_and_dropped_handles():
    import gc

    db = _fresh_db()
    session = db.connect(cold=False)
    keep = session.cursor()
    done = session.cursor()
    session.cursor()  # dropped without ever being closed
    gc.collect()
    done.close()
    assert session.open_cursors == (keep,)
    session.close()
    assert session.open_cursors == ()


def test_connection_close_is_idempotent_with_cursors():
    db = _fresh_db()
    session = db.connect(cold=False)
    cur = session.execute("SELECT c1 FROM micro WHERE c2 < 1000")
    session.close()
    session.close()  # second close is a no-op, not an error
    assert cur.stream.closed


# -- the batch-granular buffer: fetch boundaries, ownership, drains -----------
#
# The cursor holds one pulled batch plus a head offset and serves every
# fetch by slicing.  The statements below put each kind of batch behind
# it; the heap's last page is short (24,050 = 200 x 120 + 50).

BOUNDARY_STATEMENTS = {
    # 13 extent-sized Chunk batches, ~560 rows each
    "chunks": "SELECT /*+ force_path(full) */ c1, c2 FROM micro "
              "WHERE c2 < 30000",
    # one 7,285-row Chunk (SortScan: one batch per run)
    "one-chunk": "SELECT /*+ force_path(sort) */ c1, c2 FROM micro "
                 "WHERE c2 < 30000",
    # Sort's output: Chunk batches of exactly DEFAULT_BATCH_SIZE rows
    "chunks-1024": "SELECT c1, c2 FROM micro WHERE c2 < 30000 ORDER BY c2",
    # SortScan's sparse runs: ~46 batches of 1-4 rows
    "row-lists": "SELECT /*+ force_path(sort) */ c1, c2 FROM micro "
                 "WHERE c2 < 300",
    # Sort over those: one 74-row batch
    "sorted-list": "SELECT /*+ force_path(sort) */ c1, c2 FROM micro "
                   "WHERE c2 < 300 ORDER BY c2",
    # IndexNestedLoopJoin: one short batch
    "join": "SELECT c1, d2 FROM dim JOIN micro ON d1 = c1 WHERE d1 < 30",
    "explain": "EXPLAIN SELECT c1, c2 FROM micro WHERE c2 < 300",
    "empty": "SELECT c1, c2 FROM micro WHERE c2 < 0",
}
FETCH_SIZES = (1, 7, 1023, 1024, 1025, 10**6)


@pytest.fixture(scope="module")
def boundary_db():
    from repro.storage.types import Schema

    db = Database()
    build_micro_table(db, num_tuples=24_050, seed=11)
    db.load_table("dim", Schema.of_ints(["d1", "d2"]),
                  [(i, i % 7) for i in range(0, 24_050, 5)])
    db.create_index("dim", "d1")
    db.analyze()
    return db


def _final_ledger(cur):
    return cur.stream.ledger.to_dict() if cur.stream else None


@pytest.fixture(scope="module")
def boundary_expected(boundary_db):
    """Per statement: the rows and final ledger of one ``fetchall()``."""
    conn = boundary_db.connect()
    expected = {}
    for label, sql in BOUNDARY_STATEMENTS.items():
        cur = conn.execute(sql)
        expected[label] = (cur.fetchall(), _final_ledger(cur))
    return expected


def _assert_same_rows(label, got, rows):
    if label == "explain":
        # The last line reports the plan cache's running counters.
        assert got[-1][0].startswith("plan cache: ")
        got, rows = got[:-1], rows[:-1]
    assert got == rows


def test_boundary_statements_put_their_batches_behind_the_cursor(
        boundary_db, boundary_expected):
    conn = boundary_db.connect()

    def batches(label):
        run = conn.execute(BOUNDARY_STATEMENTS[label]).stream
        out = []
        while (batch := run.next_batch()) is not None:
            out.append(batch)
        return out

    assert len(batches("chunks")) > 10
    assert [len(b) for b in batches("one-chunk")] == [7285]
    assert [len(b) for b in batches("chunks-1024")][:-1] == [1024] * 7
    assert len(batches("row-lists")) > 10
    assert [len(b) for b in batches("sorted-list")] == [74]
    assert len(batches("join")) == 1
    assert boundary_expected["empty"][0] == []
    assert len(boundary_expected["explain"][0]) >= 3


@pytest.mark.parametrize("size", FETCH_SIZES)
@pytest.mark.parametrize("label", sorted(BOUNDARY_STATEMENTS))
def test_fetchmany_boundaries(boundary_db, boundary_expected, label, size):
    rows, ledger = boundary_expected[label]
    cur = boundary_db.connect().execute(BOUNDARY_STATEMENTS[label])
    got = []
    while True:
        part = cur.fetchmany(size)
        if not part:
            break
        # Full-sized until the result runs out, never over-sized.
        assert len(part) == min(size, len(rows) - len(got))
        got += part
        if label != "explain" and len(got) < len(rows):
            assert cur.rowcount == -1   # not published before the drain
    _assert_same_rows(label, got, rows)
    assert cur.rowcount == len(rows)
    assert cur.fetchmany(size) == [] and cur.fetchone() is None
    assert _final_ledger(cur) == ledger


@pytest.mark.parametrize("label", sorted(BOUNDARY_STATEMENTS))
def test_interleaved_fetch_calls_deliver_every_row_once(
        boundary_db, boundary_expected, label):
    rows, ledger = boundary_expected[label]
    cur = boundary_db.connect().execute(BOUNDARY_STATEMENTS[label])
    cur.arraysize = 5
    got = []
    first = cur.fetchone()
    got += [first] if first is not None else []
    got += cur.fetchmany(7)
    got += cur.fetchmany()              # arraysize
    try:
        got.append(next(cur))
    except StopIteration:
        pass
    got += cur.fetchmany(1030)          # crosses at least one batch edge
    got += list(cur)                    # iteration: repeated fetchmany()
    assert cur.fetchall() == []
    _assert_same_rows(label, got, rows)
    assert cur.rowcount == len(rows)
    assert _final_ledger(cur) == ledger


def test_fetchall_after_partial_fetch_returns_the_tail(
        boundary_db, boundary_expected):
    rows, _ = boundary_expected["chunks"]
    cur = boundary_db.connect().execute(BOUNDARY_STATEMENTS["chunks"])
    head = cur.fetchmany(100)           # leaves most of batch 1 buffered
    assert cur.rowcount == -1
    tail = cur.fetchall()
    assert head + tail == rows
    assert cur.rowcount == len(rows)


def test_close_mid_batch_drops_the_buffer_and_finalizes_partial(
        boundary_db):
    cur = boundary_db.connect().execute(BOUNDARY_STATEMENTS["chunks"])
    assert len(cur.fetchmany(10)) == 10
    cur.close()
    assert cur.stream.closed and not cur.stream.exhausted
    assert cur.rowcount == -1
    assert cur.result().run.extras["partial"] is True
    with pytest.raises(InterfaceError, match="cursor is closed"):
        cur.fetchmany(10)


def test_reexecute_mid_batch_starts_clean(boundary_db, boundary_expected):
    conn = boundary_db.connect()
    cur = conn.execute(BOUNDARY_STATEMENTS["chunks"])
    cur.fetchmany(10)                   # ~550 rows still buffered
    abandoned = cur.stream
    cur.execute(BOUNDARY_STATEMENTS["row-lists"])
    assert abandoned.closed
    assert cur.rowcount == -1
    rows, ledger = boundary_expected["row-lists"]
    assert cur.fetchall() == rows       # nothing left over from before
    assert _final_ledger(cur) == ledger
    # ... and an EXPLAIN's static rows do not survive a re-execute either.
    cur.execute(BOUNDARY_STATEMENTS["explain"])
    cur.fetchone()
    cur.execute(BOUNDARY_STATEMENTS["empty"])
    assert cur.fetchall() == [] and cur.rowcount == 0


def test_fetch_size_must_be_positive(boundary_db):
    cur = boundary_db.connect().execute(BOUNDARY_STATEMENTS["chunks"])
    for bad in (0, -1):
        with pytest.raises(InterfaceError, match="positive"):
            cur.fetchmany(bad)
    cur.close()


# -- the caller owns every fetched list ---------------------------------------

@pytest.mark.parametrize("label", ["chunks", "one-chunk", "chunks-1024",
                                   "row-lists", "sorted-list", "join"])
def test_fetched_lists_never_alias_engine_state(
        boundary_db, boundary_expected, label, monkeypatch):
    """Scribble over everything a cursor hands out; nothing may notice.

    The buffered batch can be ``Chunk._rows`` of a heap-cached run chunk
    (a 100% full scan returns the cached chunk itself) or a producing
    operator's own list, so an aliased result would corrupt the *next*
    fetch or the next execution.
    """
    from repro.api import session

    rows, _ = boundary_expected[label]
    sql = BOUNDARY_STATEMENTS[label]
    conn = boundary_db.connect()
    produced = []       # every row list the engine put behind the cursor

    class RecordedRun(session.StreamingRun):
        def pull(self, rows=None):
            batches = super().pull(rows)
            produced.extend(batch.to_rows() for batch in batches)
            return batches

    monkeypatch.setattr(session, "StreamingRun", RecordedRun)
    conn.execute(sql).fetchall()
    sizes = [len(batch) for batch in produced]

    # Fetch sizes that coincide with the batch sizes: a whole-batch
    # fetch is where handing out the buffer itself would be tempting.
    del produced[:]
    cur = conn.execute(sql)
    seen = []
    for size in sizes:
        part = cur.fetchmany(size)
        assert not any(part is batch for batch in produced)
        seen += part
        part.reverse()
        part.append(("scribble",))
        part.clear()
    assert seen == rows and cur.fetchmany(1) == []
    # Same through fetchall(), from a mid-batch position.
    del produced[:]
    cur = conn.execute(sql)
    head = cur.fetchmany(3)
    head[:] = [None] * len(head)
    rest = cur.fetchall()
    assert not any(rest is batch for batch in produced)
    assert rest == rows[3:]
    rest.clear()
    assert conn.execute(sql).fetchall() == rows


def test_full_scan_of_everything_survives_mutated_results(boundary_db):
    # 100% selectivity: FullTableScan yields the heap's cached run chunks
    # themselves, so their cached row lists sit right behind the cursor.
    conn = boundary_db.connect()
    sql = "SELECT /*+ force_path(full) */ * FROM micro"
    first = conn.execute(sql).fetchall()
    expected = list(first)
    first.clear()
    cur = conn.execute(sql)
    while part := cur.fetchmany(1920):  # exactly one extent of 16 pages
        part.clear()
    assert conn.execute(sql).fetchall() == expected


# -- executemany drains without building rows ---------------------------------

def test_executemany_builds_no_row_tuples(boundary_db, monkeypatch):
    from repro.exec.iterator import Chunk

    conn = boundary_db.connect()
    sql = "SELECT /*+ force_path(full) */ c1, c2 FROM micro WHERE c2 < ?"
    params = [(100,), (20_000,), (70_000,)]
    singles = [conn.run(sql, p, keep_rows=False) for p in params]

    calls = []
    original = Chunk.to_rows
    monkeypatch.setattr(
        Chunk, "to_rows",
        lambda self: calls.append(len(self)) or original(self))
    cur = conn.cursor()
    cur.executemany(sql, params)
    assert calls == []
    assert cur.rowcount == sum(r.row_count for r in singles)
    # Fetching afterwards is undefined per PEP-249: here, an error.
    with pytest.raises(InterfaceError, match="no statement"):
        cur.fetchall()


def test_executemany_ledgers_match_single_executions(boundary_db,
                                                     monkeypatch):
    from repro.api import session

    conn = boundary_db.connect()
    sql = "SELECT /*+ force_path(smooth) */ c1, c2 FROM micro WHERE c2 < ?"
    params = [(300,), (30_000,)]
    singles = []
    for p in params:
        cur = conn.execute(sql, p)
        cur.fetchall()
        singles.append(cur.stream.ledger.to_dict())

    runs = []

    class RecordedRun(session.StreamingRun):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    monkeypatch.setattr(session, "StreamingRun", RecordedRun)
    conn.cursor().executemany(sql, params)
    assert all(run.exhausted for run in runs)
    assert [run.ledger.to_dict() for run in runs] == singles


def test_executemany_over_explain_counts_nothing(boundary_db):
    cur = boundary_db.connect().cursor()
    cur.executemany("EXPLAIN SELECT c1 FROM micro WHERE c2 < ?",
                    [(10,), (20,)])
    assert cur.rowcount == 0


# -- property: any fetch-size sequence equals fetchall() ----------------------

@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(label=st.sampled_from(sorted(BOUNDARY_STATEMENTS)),
       sizes=st.lists(st.one_of(st.integers(1, 40),
                                st.integers(500, 1100),
                                st.sampled_from(FETCH_SIZES)),
                      max_size=25))
def test_any_fetch_sequence_concatenates_to_fetchall(
        boundary_db, boundary_expected, label, sizes):
    rows, ledger = boundary_expected[label]
    cur = boundary_db.connect().execute(BOUNDARY_STATEMENTS[label])
    got = []
    for size in sizes:
        part = cur.fetchmany(size)
        assert len(part) == min(size, len(rows) - len(got))
        got += part
    got += cur.fetchall()
    _assert_same_rows(label, got, rows)
    assert cur.rowcount == len(rows)
    assert _final_ledger(cur) == ledger

"""Running one statement in-process: through the cursor, or staged.

``run_cursor`` is what the end-to-end metrics time: ``Cursor.execute`` plus
``fetchmany`` until the result is drained.  ``run_staged`` is the traced
twin: it makes the same public calls the session layer makes for a
statement, one span around each, so that the time can be split by layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from harness import Trace, cpu_now, now
from repro.exec.iterator import Chunk
from repro.exec.stats import StreamingRun
from repro.optimizer.plan_cache import options_fingerprint
from repro.optimizer.planner import Planner
from repro.sql import Binder, parse

FETCH_ROWS = 1024


@dataclass
class StatementRun:
    rows: list
    wall_s: float
    cpu_s: float
    ledger: object
    fetch_calls: int


def run_cursor(conn, operation, params) -> StatementRun:
    """``operation`` is SQL text or a prepared statement of ``conn``."""
    w0, c0 = now(), cpu_now()
    cursor = conn.cursor().execute(operation, params)
    rows: list = []
    calls = 0
    while True:
        got = cursor.fetchmany(FETCH_ROWS)
        calls += 1
        rows += got
        if len(got) < FETCH_ROWS:   # a short read is the end of the result
            break
    c1, w1 = cpu_now(), now()
    return StatementRun(rows, w1 - w0, c1 - c0, cursor.stream.ledger, calls)


def run_staged(conn, sql: str, bound, params, trace: Trace,
               statement: int) -> StatementRun:
    """One statement through compile -> bind_params -> plan-cache lookup ->
    plan -> batch loop -> rowify, a span per call.

    ``bound`` is the statement compiled earlier (a prepared statement's
    ``BoundStatement``) or None to compile ``sql`` now.
    """
    db = conn.db
    w0, c0 = now(), cpu_now()
    root = trace.begin(Trace.ROOT, statement=statement)
    if bound is None:
        span = trace.begin("sql.parse", root, statement)
        tree = parse(sql)
        trace.end(span)
        span = trace.begin("sql.bind", root, statement)
        bound = Binder(db, sql).bind(tree)
        trace.end(span)
    options = bound.planner_options(conn.options)
    span = trace.begin("sql.bind_params", root, statement)
    spec = bound.bind_params(params)
    trace.end(span)
    span = trace.begin("optimizer.cache_lookup", root, statement)
    key = (bound.normalized, options_fingerprint(options))
    version = db.catalog_version
    recipe = db.plan_cache.lookup(key, version)
    trace.end(span)
    span = trace.begin("optimizer.plan", root, statement)
    planned = Planner(db, db.catalog, options).plan_query(spec, recipe=recipe)
    if recipe is None:
        db.plan_cache.store(key, planned.recipe, version)
    trace.end(span)
    planned.reset_counters()
    span = trace.begin("exec.open", root, statement)
    run = StreamingRun(db, planned.root, cold=conn.cold)
    trace.end(span)
    rows: list = []
    batches = 0
    while True:
        span = trace.begin("exec.next_batch", root, statement)
        batch = run.next_batch()
        trace.end(span)
        if batch is None:
            break
        batches += 1
        span = trace.begin("api.to_rows", root, statement)
        rows += batch.to_rows() if isinstance(batch, Chunk) else batch
        trace.end(span)
    trace.end(root)
    c1, w1 = cpu_now(), now()
    return StatementRun(rows, w1 - w0, c1 - c0, run.ledger, batches)

"""The PEP-249-flavored session layer: Connection, Cursor, PreparedStatement.

This is the execution surface applications use to serve repeated traffic::

    conn = db.connect()
    cur = conn.cursor()
    cur.execute("SELECT * FROM micro WHERE c2 < ?", (20_000,))
    print(cur.description)        # name/type per output column
    for row in cur:               # streams operator batches, no full
        ...                       # materialization

    st = conn.prepare("SELECT * FROM micro WHERE c2 >= ? AND c2 < ?")
    st.execute((0, 100)).fetchall()       # lex/parse/bind ONCE, plan once
    st.execute((0, 90_000)).fetchall()    # new params: cached plan replayed

The pieces behind the surface:

* ``prepare()`` compiles the statement exactly once into a parameterized
  :class:`~repro.sql.binder.BoundStatement`; per-execute work is
  parameter substitution only.
* Planning goes through the database's
  :class:`~repro.optimizer.plan_cache.PlanCache`: the first execution's
  decisions are frozen into a :class:`~repro.optimizer.planner.PlanRecipe`
  and replayed on later executions — which is precisely how a cached
  plan drifts out of optimality as its parameters move, the scenario
  Smooth Scan (``PlannerOptions(enable_smooth=True)``) makes safe.
* Cursors stream: ``fetchone``/``fetchmany`` pull operator batches
  incrementally through :class:`~repro.exec.stats.StreamingRun`;
  ``arraysize`` sets how many rows a default ``fetchmany()`` returns.
  The buffer is **one fetch's joined chunk**: a fetch that needs more
  rows than the buffer holds makes one ``pull`` for the difference
  (one attribution window however many batches it takes), joins what
  is left of the buffer and the pulled batches with ``Chunk.concat``
  (selections over one heap image stay a selection, adjacent extents
  one slice), and the cursor keeps that chunk plus a head offset —
  no per-row queue.  Each fetch rowifies only the slice it hands out.
  **The caller owns every list a fetch returns**: it is always a fresh
  list, never the buffered one (which may be a chunk's cached rows or a
  producing operator's own list), so mutating a result cannot reach
  back into the engine.  :meth:`Cursor.result` reports the simulated
  cost so far, including partially-fetched runs.
* Cursors are **concurrent**: any number may stream on one database at
  once, interleaving fetches however the application (or the
  deterministic :class:`~repro.exec.scheduler.CooperativeScheduler`)
  likes.  They genuinely contend — one shared disk head, one shared
  buffer pool — while each cursor's :meth:`~Cursor.result` reads its
  own private :class:`~repro.runtime.CostLedger`, so interleaved
  queries report correct isolated costs; cursors of one prepared
  statement each compute with their own parameters.  Concurrency
  needs a *warm* connection (``db.connect(cold=False)``): a cold
  execution resets the shared caches, which raises while another
  cursor still streams instead of corrupting it.

Execution is cooperative and deterministic — batches interleave on one
Python thread, simulated time stands in for wall-clock — with no
transactions, so ``commit``/``rollback`` are accepted no-ops.  Other
deliberate PEP-249 deviations: ``execute`` returns the cursor
(chaining); ``EXPLAIN SELECT ...`` produces a one-column result set of
plan-tree lines (plus a plan-cache status line), like real engines do.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.api.result import QueryResult
from repro.errors import InterfaceError
from repro.exec.iterator import Chunk
from repro.exec.stats import StreamingRun, measure
from repro.optimizer.plan_cache import options_fingerprint
from repro.optimizer.planner import PlannedQuery, Planner, PlannerOptions
from repro.storage.types import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.database import Database
    from repro.sql.binder import BoundStatement

#: PEP-249 module attributes (informational).
apilevel = "2.0"
#: Threads may share the module, not connections.  Concurrency within
#: the engine is *cooperative*, not thread-based: many cursors can
#: stream interleaved on one database (see the module docstring and
#: :mod:`repro.exec.scheduler`), all on the caller's thread, with
#: per-cursor cost ledgers keeping their measurements isolated.
threadsafety = 1
paramstyle = "qmark"      # ':name' style is additionally supported

#: Default Cursor.arraysize: rows per parameterless ``fetchmany()``.
DEFAULT_ARRAYSIZE = 256

#: What a cursor buffers before its first pull: a batch with no rows.
_NO_BATCH = Chunk((), [])


def _check_same_database(statement: "PreparedStatement",
                         connection: "Connection") -> None:
    """A statement bound against one catalog must not run on another.

    Its spec and compiled callables carry the *preparing* database's
    name resolution and column positions; executing them elsewhere
    would at best plan nonsense and at worst return silently wrong
    rows.  (Sharing across *connections* of the same database is fine —
    the bound artifacts only depend on the catalog.)
    """
    if statement.connection.db is not connection.db:
        raise InterfaceError(
            "prepared statement belongs to a different database"
        )


class Connection:
    """One session against a database: cursors, prepared statements.

    ``options`` are the session's default planner options (hint comments
    still layer on top, per statement).  ``cold=True`` keeps the paper's
    measurement discipline — every execution starts with dropped caches —
    so per-query measurements stay comparable to ``Database.execute``.
    Use ``cold=False`` for concurrent cursors: cold executions refuse to
    reset the shared caches while another cursor is still streaming.
    """

    def __init__(self, db: "Database",
                 options: PlannerOptions | None = None,
                 cold: bool = True):
        self.db = db
        self.options = options
        self.cold = cold
        self._closed = False
        # Weak refs in creation order: closing the connection closes the
        # cursors that are still reachable, oldest first; one the
        # application already dropped needs no cleanup (its run's
        # charges were attributed as they happened).
        self._cursors: list[weakref.ref["Cursor"]] = []

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the session (idempotent); handles refuse further use.

        Live cursors of this connection are closed too, in creation
        order — any still-streaming run is abandoned mid-flight with its
        ledger finalized at the rows produced so far, so a serving front
        dropping a client mid-stream leaks neither live streams (which
        would block cold starts) nor unattributed charges.
        """
        if self._closed:
            return
        self._closed = True
        for ref in self._cursors:
            cursor = ref()
            if cursor is not None:
                cursor.close()
        self._cursors = []

    @property
    def open_cursors(self) -> tuple["Cursor", ...]:
        """This connection's reachable, not-yet-closed cursors."""
        found = tuple(cursor for ref in self._cursors
                      if (cursor := ref()) is not None
                      and not cursor._closed)
        self._cursors = [weakref.ref(cursor) for cursor in found]
        return found

    def commit(self) -> None:
        """No-op: the engine is read-only (PEP-249 compatibility)."""
        self._check_open()

    def rollback(self) -> None:
        """No-op: the engine is read-only (PEP-249 compatibility)."""
        self._check_open()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    # -- statement entry points ----------------------------------------------

    def cursor(self) -> "Cursor":
        """A new cursor over this connection."""
        self._check_open()
        return Cursor(self)

    def prepare(self, sql: str) -> "PreparedStatement":
        """Compile ``sql`` once; execute it many times with parameters."""
        self._check_open()
        return PreparedStatement(self, sql)

    def execute(self, sql: "str | PreparedStatement",
                params: object = None) -> "Cursor":
        """Shorthand: ``cursor().execute(sql, params)``."""
        return self.cursor().execute(sql, params)

    def run(self, sql: "str | PreparedStatement", params: object = None,
            *, cold: bool | None = None, keep_rows: bool = True,
            options: PlannerOptions | None = None) -> "QueryResult | str":
        """Execute to completion and measure — the non-streaming call.

        The one-shot twin of a cursor: plan (through the plan cache),
        drain, and return a :class:`~repro.api.result.QueryResult`; an
        ``EXPLAIN`` statement returns the rendered plan string.
        """
        self._check_open()
        if isinstance(sql, PreparedStatement):
            statement = sql
            _check_same_database(statement, self)
        else:
            statement = PreparedStatement(self, sql)
        bound = statement._bound
        opts = bound.planner_options(
            options if options is not None else self.options
        )
        planned, _outcome = self._plan(bound, opts, params)
        if bound.explain:
            return planned.render()
        planned.reset_counters()
        run_cold = self.cold if cold is None else cold
        self._note_statement(statement.sql, params, opts, run_cold)
        run = measure(self.db, planned.root, cold=run_cold,
                      keep_rows=keep_rows)
        return QueryResult(planned, run)

    # -- internals -----------------------------------------------------------

    def _note_statement(self, sql: str, params: object,
                        options: PlannerOptions | None,
                        cold: bool) -> None:
        """Hand statement context to the tracer before a run starts.

        The next streaming run's ``query.start`` span picks it up —
        statement text, bind params, planner options, cold/warm — which
        is what makes traced workloads capturable for replay.  One
        attribute check when tracing is off.
        """
        tracer = self.db.tracer
        if tracer.enabled:
            from repro.telemetry.capture import options_to_dict
            tracer.note_statement(sql, params, options_to_dict(options),
                                  cold)

    def _compile(self, sql: str) -> "BoundStatement":
        """Lex/parse/bind one statement (counted on the database)."""
        from repro.sql import compile_statement
        return compile_statement(self.db, sql)

    def _plan(self, bound: "BoundStatement",
              options: PlannerOptions | None,
              params: object) -> tuple[PlannedQuery, str]:
        """Plan through the cache; returns ``(plan, "hit" | "miss")``.

        Parameter substitution happens first (cheap, structural); the
        cache is keyed on normalized text + options fingerprint, and
        entries die when the catalog version moves — so a hit replays
        the recorded recipe around the *new* parameter values without
        re-running access-path or join-method selection.
        """
        spec = bound.bind_params(params)
        cache = self.db.plan_cache
        version = self.db.catalog_version
        key = (bound.normalized, options_fingerprint(options))
        recipe = cache.lookup(key, version)
        planner = Planner(self.db, self.db.catalog, options)
        if recipe is not None:
            return planner.plan_query(spec, recipe=recipe), "hit"
        planned = planner.plan_query(spec)
        cache.store(key, planned.recipe, version)
        return planned, "miss"


class PreparedStatement:
    """One statement, compiled once, executable many times.

    Compilation (lex → parse → bind) happens in the constructor; every
    :meth:`execute` only substitutes parameters and consults the plan
    cache.  Streaming executions of one statement may interleave with
    different parameters: each cursor computes with its own values.
    """

    def __init__(self, connection: Connection, sql: str):
        # Compiling against a closed session must fail like every other
        # use of one — InterfaceError, not a late surprise at execute.
        connection._check_open()
        self.connection = connection
        self.sql = sql
        self._bound = connection._compile(sql)

    @property
    def param_count(self) -> int:
        """Number of bind parameters the statement declares."""
        return self._bound.param_count

    @property
    def param_names(self) -> tuple[str | None, ...]:
        """Per-slot parameter names (``None`` entries for ``?`` style)."""
        return self._bound.param_names

    @property
    def is_explain(self) -> bool:
        """True for ``EXPLAIN SELECT ...`` statements."""
        return self._bound.explain

    def execute(self, params: object = None) -> "Cursor":
        """Run on a fresh cursor; returns it ready for ``fetch*``."""
        return self.connection.cursor().execute(self, params)

    def run(self, params: object = None, *, cold: bool | None = None,
            keep_rows: bool = True,
            options: PlannerOptions | None = None) -> "QueryResult | str":
        """Execute to completion and measure (see :meth:`Connection.run`)."""
        return self.connection.run(self, params, cold=cold,
                                   keep_rows=keep_rows, options=options)

    def explain(self, params: object = None) -> str:
        """The plan tree this statement gets for ``params``, unexecuted."""
        self.connection._check_open()
        bound = self._bound
        opts = bound.planner_options(self.connection.options)
        planned, _ = self.connection._plan(bound, opts, params)
        return planned.render()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PreparedStatement({self.sql!r}, "
                f"params={self.param_count})")


class Cursor:
    """A streaming result handle (PEP-249 shaped).

    ``execute`` plans the statement and *starts* it; rows flow on
    ``fetchone``/``fetchmany``/``fetchall`` (or iteration), pulled from
    the engine's batch protocol as needed.  ``description`` is available
    right after ``execute``; ``rowcount`` stays ``-1`` until the result
    is fully drained (streaming cursors cannot know it earlier).

    Between fetches the cursor buffers one chunk: ``_batch`` is what the
    last fetch pulled joined with what was left before it (or the one
    batch pulled, as it arrived — read-only here, it stays its
    producer's), and ``_head`` the offset of the first row not yet
    handed out.  Fetches slice it and build rows for the slice alone, so
    what they return is always a new list the caller may keep and mutate,
    and rows nobody fetches are never built.
    """

    def __init__(self, connection: Connection):
        connection._check_open()
        self.connection = connection
        connection._cursors.append(weakref.ref(self))
        self.arraysize = DEFAULT_ARRAYSIZE
        self.description: list[tuple] | None = None
        self.rowcount = -1
        self._closed = False
        self._run: StreamingRun | None = None
        self._planned: PlannedQuery | None = None
        self._batch = _NO_BATCH       # the pulled rows (or EXPLAIN lines)
        self._head = 0                # first row of it not yet fetched

    # -- execution -----------------------------------------------------------

    def execute(self, operation: "str | PreparedStatement",
                params: object = None) -> "Cursor":
        """Plan and start one statement; returns ``self`` for chaining.

        ``operation`` is SQL text (compiled now) or a
        :class:`PreparedStatement` (compiled at prepare time).
        """
        self._check_open()
        self.connection._check_open()
        if isinstance(operation, PreparedStatement):
            statement = operation
            _check_same_database(statement, self.connection)
        else:
            statement = PreparedStatement(self.connection, operation)
        self._reset_result()
        bound = statement._bound
        opts = bound.planner_options(self.connection.options)
        planned, outcome = self.connection._plan(bound, opts, params)
        self._planned = planned
        if bound.explain:
            self._install_explain(planned, outcome)
            return self
        planned.reset_counters()
        self.connection._note_statement(statement.sql, params, opts,
                                        self.connection.cold)
        # _plan just filled the statement's value slots with this
        # execution's values; the run keeps them for its own pulls.
        box = bound.param_box
        self._run = StreamingRun(
            self.connection.db, planned.root, cold=self.connection.cold,
            params=None if box is None else (box, box.values),
        )
        self.description = [
            (c.name, c.ctype, None, c.byte_size, None, None, None)
            for c in planned.root.schema.columns
        ]
        return self

    def executemany(self, operation: "str | PreparedStatement",
                    seq_of_params: Sequence[object]) -> "Cursor":
        """Execute once per parameter set, draining each run.

        The statement is compiled once (pass text or a prepared
        statement — both work); ``rowcount`` accumulates the rows every
        execution produced.  Fetching afterwards is not supported, per
        PEP-249's "result sets are undefined after executemany" — so the
        batches are drained straight off the run, counted and dropped
        while still columnar: no row tuple is ever built.
        """
        self._check_open()
        statement = operation if isinstance(operation, PreparedStatement) \
            else PreparedStatement(self.connection, operation)
        total = 0
        for params in seq_of_params:
            self.execute(statement, params)
            run = self._run
            if run is None:         # EXPLAIN: runs nothing
                continue
            run.pull()
            total += run.rows_produced
        self._reset_result(rowcount=total)
        return self

    # -- fetching ------------------------------------------------------------

    def fetchone(self) -> Row | None:
        """The next row, or ``None`` when the result is exhausted."""
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchmany(self, size: int | None = None) -> list[Row]:
        """Up to ``size`` rows (default ``arraysize``), streamed.

        Batches are pulled from the operator tree only as needed — a
        ``LIMIT``-less scan fetched 10 rows at a time never materializes
        the full result set in the cursor.  The returned list is the
        caller's: one slice of the buffer, after one pull tops it up when
        it holds fewer than ``size`` rows.
        """
        self._check_fetchable()
        if size is None:
            size = self.arraysize
        if size <= 0:
            raise InterfaceError(
                f"fetchmany size must be positive, got {size}"
            )
        self._fill(size)
        out = self._take(size)
        self._maybe_finish()
        return out

    def fetchall(self) -> list[Row]:
        """Every remaining row (drains the plan to completion).

        Like :meth:`fetchmany`, returns a list the caller owns."""
        self._check_fetchable()
        self._fill(None)
        out = self._take(None)
        self._batch, self._head = _NO_BATCH, 0
        self._maybe_finish()
        return out

    def __iter__(self) -> Iterator[Row]:
        """Stream rows; equivalent to repeated ``fetchmany()``."""
        while True:
            rows = self.fetchmany()
            if not rows:
                return
            yield from rows

    def __next__(self) -> Row:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # -- measurement and plan introspection ----------------------------------

    def result(self) -> QueryResult | None:
        """Measurements + decision trail for the current execution.

        Valid any time after ``execute``: before the result is drained
        it reports the simulated cost of the rows produced *so far*
        (``result().run.extras["partial"]`` is then True).  ``None`` for
        EXPLAIN executions, which run nothing.
        """
        if self._planned is None:
            raise InterfaceError("no statement has been executed")
        if self._run is None:
            return None
        return QueryResult(self._planned, self._run.result())

    @property
    def plan(self) -> PlannedQuery | None:
        """The physical plan of the last execution (EXPLAIN included)."""
        return self._planned

    @property
    def stream(self) -> StreamingRun | None:
        """The live streaming run behind this cursor (None for EXPLAIN).

        The handle the :class:`~repro.exec.scheduler.CooperativeScheduler`
        drains when a cursor is scheduled as a workload query: batches
        pulled through it are counted (and charged to this cursor's
        ledger) but not buffered for fetching.
        """
        return self._run

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Abandon any in-flight run and refuse further use."""
        if self._run is not None:
            self._run.close()
        self._batch, self._head = _NO_BATCH, 0
        self._closed = True

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _reset_result(self, rowcount: int = -1) -> None:
        if self._run is not None:
            self._run.close()
        self._run = None
        self._planned = None
        self._batch, self._head = _NO_BATCH, 0
        self.description = None
        self.rowcount = rowcount

    def _install_explain(self, planned: PlannedQuery, outcome: str) -> None:
        """EXPLAIN result set: one plan-tree line per row, plus the
        plan-cache status line (the stats ``explain()`` surfaces)."""
        from repro.storage.types import ColumnType
        stats = self.connection.db.plan_cache.stats_dict()
        lines = planned.render().splitlines()
        lines.append(
            f"plan cache: {outcome} (hits={stats['hits']} "
            f"misses={stats['misses']} "
            f"invalidations={stats['invalidations']})"
        )
        # Known in full at execute time: buffered as the one batch.
        self._batch = Chunk.from_rows(("plan",), [(line,) for line in lines])
        self._head = 0
        self.description = [
            ("plan", ColumnType.CHAR, None, None, None, None, None)
        ]
        self.rowcount = len(lines)

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")

    def _check_fetchable(self) -> None:
        self._check_open()
        if self._planned is None:
            raise InterfaceError(
                "no statement has been executed on this cursor"
            )

    def _fill(self, size: int | None) -> None:
        """Make the buffer hold ``size`` rows (every row left when None)
        with one pull, if it holds fewer and the run is not done.

        What is left of the old buffer leads the pulled batches into one
        joined chunk, so a fetch rowifies once.  The buffer is empty
        while the pull runs: a pull that raises leaves nothing to fetch.
        """
        left = len(self._batch) - self._head
        if self._run is None or (size is not None and left >= size):
            return
        parts = [self._batch[self._head:]] if left else []
        self._batch, self._head = _NO_BATCH, 0
        parts += self._run.pull(None if size is None else size - left)
        if parts:
            self._batch = Chunk.concat(parts)

    def _take(self, size: int | None) -> list[Row]:
        """The next ``size`` rows of the buffer (all that is left of it
        when fewer, or when ``size`` is None), as a new list.

        Rowify here, at the API boundary, and only the slice handed out
        — batches arrive columnar.  A fetch of the whole buffer rowifies
        the buffered chunk itself, and hands out a copy of its row list.
        """
        batch, head = self._batch, self._head
        stop = len(batch)
        if size is not None:
            stop = min(stop, head + size)
        self._head = stop
        if head == 0 and stop == len(batch):
            return batch.to_rows()[:]
        return batch[head:stop].to_rows()

    def _maybe_finish(self) -> None:
        """Publish rowcount once the stream is exhausted and drained.

        (EXPLAIN rowcount is known — and set — at execute time.)"""
        if self._run is not None and self._run.exhausted \
                and self._head == len(self._batch):
            self.rowcount = self._run.rows_produced

"""Sans-IO serving sessions: protocol frames in, protocol frames out.

One :class:`ServerFront` fronts one database: it owns the
:class:`~repro.server.admission.AdmissionController` (budgets, in-flight
slots, the FIFO admission queue) and the registry of live
:class:`ServerSession`\\ s.  A session is one client's protocol state —
its engine :class:`~repro.api.session.Connection`, prepared-statement
and cursor handles — with a single entry point,
:meth:`ServerSession.handle`: give it a decoded request frame, get back
the response frames.  No sockets, no asyncio, no clocks — which is what
makes the same serving logic drivable by the real
:mod:`asyncio server <repro.server.server>` *and* by the deterministic
in-process clients the 1,000-client benchmark steps with
:class:`~repro.exec.scheduler.CooperativeScheduler`
(:mod:`repro.server.inprocess`).

Two execution routes per admitted statement:

* **admit** — the cursor runs on the session's own connection (the
  front's base planner options, plan cache included);
* **degrade** — the cursor runs on the front's per-table *degraded*
  connection: a forced Smooth Scan with the SLA-driven trigger, shared
  by every session so degraded executions share one plan-cache entry.

When the engine is saturated (``max_inflight`` statements already
running) an admitted request parks in the front's FIFO queue and its
``handle`` call returns no frames; the response arrives later — through
the session's ``sink`` callback — when a slot frees and
:meth:`ServerFront.pump` starts the statement.  Queue wait is the
simulated-clock span between parking and starting, reported per
request (``admission.queued_ms``) and in aggregate (``stats`` frames).
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.api.session import Connection, Cursor, PreparedStatement
from repro.errors import InterfaceError, ReproError, SqlError
from repro.optimizer.planner import PlannerOptions
from repro.server import protocol
from repro.server.admission import (
    ADMIT,
    SPLIT,
    AdmissionController,
    AdmissionDecision,
)
from repro.server.protocol import ProtocolError, error_frame, rows_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.database import Database

#: Default rows carried per ``rows`` frame (and per drain quantum).
DEFAULT_ROWS_PER_FRAME = 256

#: A frame consumer for asynchronously-produced frames (queue grants,
#: drained rows): the transport decides where they go.
FrameSink = Callable[[dict], None]

_log = logging.getLogger(__name__)


@dataclass
class _CursorState:
    """One live server-side cursor and its admission bookkeeping."""

    cursor: Cursor
    decision: AdmissionDecision | None   # None for EXPLAIN executions
    holds_slot: bool
    explain: bool = False


@dataclass
class _Parked:
    """One admitted request waiting in the FIFO queue for a slot."""

    session: "ServerSession"
    rid: object
    statement: PreparedStatement
    params: object
    decision: AdmissionDecision
    submit_ms: float
    drain: bool
    cancelled: bool = False


def _failure_frame(rid: object, exc: Exception) -> dict:
    """The ``error`` frame a request that raised ``exc`` gets.

    Session-layer misuse (closed connection/cursor, bad fetch size) gets
    its own code on EVERY frame type — a client racing a close sees
    "interface", never "internal".  Anything that is not a protocol,
    SQL or interface error, an engine bug included, is "internal" and
    names its type; the statement it ended holds no cursor and no slot
    (:meth:`ServerSession._start_statement`,
    :meth:`ServerSession._fetch_frame`).  An exception that is not a
    :class:`~repro.errors.ReproError` is logged with its traceback.
    """
    if isinstance(exc, ProtocolError):
        return error_frame(rid, exc.code, exc.message)
    if isinstance(exc, SqlError):
        return error_frame(rid, protocol.ERR_SQL, str(exc))
    if isinstance(exc, InterfaceError):
        return error_frame(rid, protocol.ERR_INTERFACE, str(exc))
    if not isinstance(exc, ReproError):
        _log.error("internal error answering request %r", rid, exc_info=exc)
    return error_frame(rid, protocol.ERR_INTERNAL,
                       f"{type(exc).__name__}: {exc}")


class ServerFront:
    """Everything one serving endpoint shares across its sessions."""

    def __init__(self, db: "Database",
                 options: PlannerOptions | None = None,
                 admission: AdmissionController | None = None,
                 rows_per_frame: int = DEFAULT_ROWS_PER_FRAME):
        self.db = db
        self.options = options
        self.admission = admission or AdmissionController(db)
        self.rows_per_frame = rows_per_frame
        self.draining = False
        self._sessions: dict[int, "ServerSession"] = {}
        self._next_session = 0
        self._pending: deque[_Parked] = deque()
        self._degraded: dict[str, Connection] = {}
        self._pumping = False

    # -- sessions ------------------------------------------------------------

    def session(self, sink: FrameSink | None = None) -> "ServerSession":
        """Open one protocol session (one engine connection)."""
        sid = self._next_session
        self._next_session += 1
        session = ServerSession(self, sid, sink)
        self._sessions[sid] = session
        return session

    @property
    def sessions(self) -> int:
        """Number of currently-open sessions."""
        return len(self._sessions)

    def _drop_session(self, session: "ServerSession") -> None:
        self._sessions.pop(session.id, None)

    # -- degraded executions --------------------------------------------------

    def degraded_connection(self, table: str) -> Connection:
        """The shared degrade-to-smooth connection for one base table."""
        if table not in self._degraded:
            options = self.admission.degrade_options_for(table, self.options)
            if options is None:  # decide() only degrades when eligible
                raise ProtocolError(
                    protocol.ERR_INTERNAL,
                    f"table {table!r} has no bounded degrade path"
                )
            self._degraded[table] = self.db.connect(options=options,
                                                    cold=False)
        return self._degraded[table]

    def split_connection(self, table: str) -> Connection:
        """The shared shard-parallel connection for split admissions.

        Owned by the admission controller (pricing and execution must
        go through the same plan cache entry); raised here into a
        protocol error when the table lost its shard set between
        decide() and start.
        """
        conn = self.admission.split_connection(table, self.options)
        if conn is None:
            raise ProtocolError(
                protocol.ERR_INTERNAL,
                f"table {table!r} is not partitioned for split execution"
            )
        return conn

    # -- the admission queue --------------------------------------------------

    @property
    def queued(self) -> int:
        """Requests currently parked waiting for an in-flight slot."""
        return sum(1 for p in self._pending if not p.cancelled)

    def _park(self, parked: _Parked) -> None:
        self._pending.append(parked)

    def cancel_parked(self, session: "ServerSession", rid: object) -> bool:
        """Withdraw one session's queued request (per-request timeouts).

        True when the request was still parked (the caller owes the
        client a ``timeout`` error frame); False when it already
        started — its ``executing`` response is on the way.
        """
        for parked in self._pending:
            if (parked.session is session and parked.rid == rid
                    and not parked.cancelled):
                parked.cancelled = True
                return True
        return False

    def release_slot(self) -> None:
        """Return a slot and immediately offer it to the queue head."""
        self.admission.release()
        self.pump()

    def pump(self) -> None:
        """Start queued statements while slots are free.

        Frames produced here (the ``executing`` response a parked
        request was owed, plus the full drain for parked ``query``
        requests) are delivered through each session's ``sink``.
        Re-entrant calls (a drained statement releasing its slot
        mid-pump) fall through to the outer loop.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            while (self._pending and not self.draining
                   and self.admission.slots_free > 0):
                parked = self._pending.popleft()
                if parked.cancelled:
                    continue
                self.admission.try_acquire()
                wait_ms = self.clock_ms - parked.submit_ms
                try:
                    frames = parked.session._start_statement(
                        parked.rid, parked.statement, parked.params,
                        parked.decision, wait_ms=wait_ms, was_queued=True,
                        drain=parked.drain,
                    )
                except Exception as exc:
                    frames = [_failure_frame(parked.rid, exc)]
                for frame in frames:
                    parked.session.emit(frame)
        finally:
            self._pumping = False

    def begin_drain(self) -> None:
        """Refuse new statements; flush the queue with structured errors.

        In-flight cursors are *not* touched — graceful shutdown lets
        them drain (the transports force-close whatever remains after
        their grace period).
        """
        self.draining = True
        while self._pending:
            parked = self._pending.popleft()
            if parked.cancelled:
                continue
            parked.session.emit(error_frame(
                parked.rid, protocol.ERR_SHUTTING_DOWN,
                "server is shutting down; queued statement cancelled",
            ))

    @property
    def inflight(self) -> int:
        """Statements currently holding an in-flight slot."""
        return self.admission.inflight

    @property
    def clock_ms(self) -> float:
        """The shared simulated clock (queue waits are measured on it)."""
        return self.db.runtime.clock.total_ms


class ServerSession:
    """One client's protocol state over one engine connection."""

    def __init__(self, front: ServerFront, session_id: int,
                 sink: FrameSink | None = None):
        self.front = front
        self.id = session_id
        self.sink: FrameSink = sink if sink is not None else (lambda f: None)
        self.conn = front.db.connect(options=front.options, cold=False)
        self._statements: dict[int, PreparedStatement] = {}
        self._cursors: dict[int, _CursorState] = {}
        self._next_statement = 0
        self._next_cursor = 0
        self._closed = False

    # -- frame plumbing ------------------------------------------------------

    def emit(self, frame: dict) -> None:
        """Deliver one asynchronously-produced frame via the sink."""
        self.sink(frame)

    def hello(self) -> dict:
        """The banner frame a transport sends on connect."""
        return {
            "op": "hello",
            "protocol": protocol.PROTOCOL_VERSION,
            "server": "repro",
            "session": self.id,
            "sla_multiple": self.front.admission.sla_multiple,
            "max_inflight": self.front.admission.max_inflight,
        }

    def handle(self, frame: dict) -> list[dict]:
        """Process one request frame; returns the response frames.

        An empty list means the request parked in the admission queue —
        its response will arrive through the sink.  Errors come back as
        structured ``error`` frames; only a closed session raises.
        """
        if self._closed:
            raise ProtocolError(protocol.ERR_INTERNAL, "session is closed")
        try:
            op = protocol.validate_request(frame)
        except ProtocolError as exc:
            rid = frame.get("id") if isinstance(frame, dict) else None
            if not isinstance(rid, (str, int)) or isinstance(rid, bool):
                rid = None
            return [error_frame(rid, exc.code, exc.message)]
        rid = frame["id"]
        try:
            if op == "prepare":
                return self._prepare(rid, frame)
            if op == "execute":
                return self._execute(rid, frame, drain=False)
            if op == "query":
                return self._execute(rid, frame, drain=True)
            if op == "fetch":
                return self._fetch(rid, frame)
            if op == "close":
                return self._close_cursor(rid, frame)
            if op == "stats":
                return self._stats(rid)
            # "shutdown": ack here; the transport watches for the op
            # and performs the actual drain-and-exit around it.
            self.front.begin_drain()
            return [{"op": "shutting_down", "id": rid}]
        except Exception as exc:
            return [_failure_frame(rid, exc)]

    def close(self) -> None:
        """End the session: close live cursors, release their slots.

        Closing a cursor mid-stream finalizes its ledger (the charges
        it accrued stay attributed to it) and releasing the slots lets
        the front pump queued statements from other sessions.
        """
        if self._closed:
            return
        self._closed = True
        for parked in self.front._pending:
            if parked.session is self:
                parked.cancelled = True
        for cid in list(self._cursors):
            state = self._cursors.pop(cid)
            state.cursor.close()
            self._release(state)
        self.conn.close()
        self.front._drop_session(self)

    # -- ops -----------------------------------------------------------------

    def _prepare(self, rid: object, frame: dict) -> list[dict]:
        statement = self.conn.prepare(frame["sql"])  # raises SqlError
        sid = self._next_statement
        self._next_statement += 1
        self._statements[sid] = statement
        return [{
            "op": "prepared",
            "id": rid,
            "statement": sid,
            "params": statement.param_count,
            "param_names": list(statement.param_names),
            "explain": statement.is_explain,
        }]

    def _resolve_statement(self, frame: dict) -> PreparedStatement:
        if "statement" in frame:
            sid = frame["statement"]
            statement = self._statements.get(sid)
            if statement is None:
                raise ProtocolError(
                    protocol.ERR_STATEMENT_MISSING,
                    f"no prepared statement with handle {sid}"
                )
            return statement
        return PreparedStatement(self.conn, frame["sql"])

    def _execute(self, rid: object, frame: dict,
                 drain: bool) -> list[dict]:
        if self.front.draining:
            return [error_frame(rid, protocol.ERR_SHUTTING_DOWN,
                                "server is shutting down")]
        statement = self._resolve_statement(frame)
        params = frame.get("params")
        if statement.is_explain:
            # EXPLAIN runs nothing: no admission, no slot.
            return self._start_explain(rid, statement, params, drain)
        decision = self.front.admission.decide(self.conn, statement, params)
        if not decision.admitted:
            self.front.admission.stats.note_rejected(decision)
            self.front.db.tracer.emit(
                "admission.reject", value=decision.estimated_cost,
                **decision.to_dict(),
            )
            return [error_frame(rid, protocol.ERR_REJECTED, decision.reason,
                                detail=decision.to_dict())]
        submit_ms = self.front.clock_ms
        if not self.front.admission.try_acquire():
            self.front._park(_Parked(
                session=self, rid=rid, statement=statement, params=params,
                decision=decision, submit_ms=submit_ms, drain=drain,
            ))
            return []
        return self._start_statement(rid, statement, params, decision,
                                     wait_ms=0.0, was_queued=False,
                                     drain=drain)

    def _start_explain(self, rid: object, statement: PreparedStatement,
                       params: object, drain: bool) -> list[dict]:
        cursor = self.conn.cursor().execute(statement, params)
        cid = self._register_cursor(cursor, decision=None,
                                    holds_slot=False, explain=True)
        frames = [self._executing_frame(rid, cid, cursor, admission=None)]
        if drain:
            frames += self._drain(rid, cid)
        return frames

    def _start_statement(self, rid: object, statement: PreparedStatement,
                         params: object, decision: AdmissionDecision,
                         wait_ms: float, was_queued: bool,
                         drain: bool) -> list[dict]:
        """Start one admitted statement (slot already held)."""
        tracer = self.front.db.tracer
        try:
            if decision.action == ADMIT:
                conn = self.conn
            elif decision.action == SPLIT:
                conn = self.front.split_connection(decision.table)
            else:
                conn = self.front.degraded_connection(decision.table)
            tracer.note_client(f"session-{self.id}")
            cursor = conn.cursor().execute(statement, params)
        except BaseException:
            self.front.release_slot()
            raise
        self.front.admission.stats.note_admitted(decision, wait_ms,
                                                 was_queued)
        stream = cursor.stream
        tracer.emit(
            f"admission.{decision.action}",
            query_id=stream.query_id if stream is not None else -1,
            value=decision.estimated_cost, queued_ms=wait_ms,
            **decision.to_dict(),
        )
        if was_queued:
            tracer.emit("admission.dequeue", value=wait_ms)
        cid = self._register_cursor(cursor, decision, holds_slot=True)
        admission = dict(decision.to_dict(), queued_ms=wait_ms)
        frames = [self._executing_frame(rid, cid, cursor, admission)]
        if drain:
            frames += self._drain(rid, cid)
        return frames

    def _register_cursor(self, cursor: Cursor,
                         decision: AdmissionDecision | None,
                         holds_slot: bool, explain: bool = False) -> int:
        cid = self._next_cursor
        self._next_cursor += 1
        self._cursors[cid] = _CursorState(cursor=cursor, decision=decision,
                                          holds_slot=holds_slot,
                                          explain=explain)
        return cid

    def _executing_frame(self, rid: object, cid: int, cursor: Cursor,
                         admission: dict | None) -> dict:
        description = [
            [d[0], getattr(d[1], "name", str(d[1]))]
            for d in (cursor.description or [])
        ]
        return {
            "op": "executing",
            "id": rid,
            "cursor": cid,
            "description": description,
            "admission": admission,
        }

    def _fetch(self, rid: object, frame: dict) -> list[dict]:
        cid = frame["cursor"]
        if cid not in self._cursors:
            raise ProtocolError(protocol.ERR_CURSOR_MISSING,
                                f"no open cursor with handle {cid}")
        n = frame.get("n") or self.front.rows_per_frame
        return [self._fetch_frame(rid, cid, n)]

    def _fetch_frame(self, rid: object, cid: int, n: int) -> dict:
        state = self._cursors[cid]
        try:
            rows = state.cursor.fetchmany(n)
        except BaseException:
            # A failed pull ends the statement: no cursor stays
            # registered and no admission slot stays held.
            self._cursors.pop(cid, None)
            state.cursor.close()
            self._release(state)
            raise
        # A short read is the end of the result: an exact-boundary
        # result takes one extra (empty) fetch to discover `done`.
        done = len(rows) < n
        response = {
            "op": "rows",
            "id": rid,
            "cursor": cid,
            "rows": rows_payload(rows),
            "done": done,
        }
        if done:
            response["summary"] = self._summary(state)
            self._cursors.pop(cid, None)
            self._release(state)
        return response

    def _drain(self, rid: object, cid: int) -> list[dict]:
        """Synchronously stream a started statement to completion."""
        frames = []
        n = self.front.rows_per_frame
        while True:
            frame = self._fetch_frame(rid, cid, n)
            frames.append(frame)
            if frame["done"]:
                return frames

    def drain_step(self, rid: object, cid: int) -> dict | None:
        """One drain quantum (a single ``rows`` frame), for transports
        that interleave many draining statements; None once the cursor
        is gone (already done or closed).  A failed pull is the
        statement's ``error`` frame, and the cursor is gone after it."""
        if cid not in self._cursors:
            return None
        try:
            return self._fetch_frame(rid, cid, self.front.rows_per_frame)
        except Exception as exc:
            return _failure_frame(rid, exc)

    def _close_cursor(self, rid: object, frame: dict) -> list[dict]:
        cid = frame["cursor"]
        state = self._cursors.pop(cid, None)
        if state is None:
            raise ProtocolError(protocol.ERR_CURSOR_MISSING,
                                f"no open cursor with handle {cid}")
        summary = self._summary(state)
        state.cursor.close()
        self._release(state)
        return [{"op": "closed", "id": rid, "cursor": cid,
                 "summary": summary}]

    def _summary(self, state: _CursorState) -> dict:
        """The measurement a finished/closed execution reports."""
        cursor = state.cursor
        run = cursor.stream
        if run is None:  # EXPLAIN: static rows, nothing ran
            return {"rows": max(cursor.rowcount, 0), "partial": False}
        ledger = run.ledger
        return {
            "rows": run.rows_produced,
            "partial": not run.exhausted,
            "ms": ledger.total_ms,
            "io_ms": ledger.io_ms,
            "cpu_ms": ledger.cpu_ms,
            "pages_read": ledger.disk.pages_read,
            "ledger": ledger.to_dict(),
        }

    def _release(self, state: _CursorState) -> None:
        if state.holds_slot:
            state.holds_slot = False
            self.front.release_slot()

    def _stats(self, rid: object) -> list[dict]:
        front = self.front
        tracer = front.db.tracer
        # Fold the plan cache's structured stats into gauges so the
        # stats frame, EXPLAIN, and \\metrics all read one source.
        for name, value in front.db.plan_cache.stats_dict().items():
            tracer.metrics.gauge(f"plan_cache_{name}").set(value)
        return [{
            "op": "stats",
            "id": rid,
            "admission": front.admission.stats.to_dict(),
            "engine": {
                "clock_ms": front.clock_ms,
                "inflight": front.inflight,
                "queued": front.queued,
                "sessions": front.sessions,
                "draining": front.draining,
            },
            "telemetry": {
                "enabled": tracer.enabled,
                "events_buffered": len(tracer.events),
                "metrics": tracer.metrics.to_dict(),
            },
        }]

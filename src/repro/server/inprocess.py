"""Deterministic in-process protocol clients: the serving benchmark's wire.

The 1,000-client serving experiment must be byte-reproducible, so it
cannot ride on real sockets or asyncio's ready-callback ordering.  A
:class:`ScriptedClient` drives the very same sans-IO
:class:`~repro.server.session.ServerSession` logic the socket server
uses, but over dict frames in plain function calls — no JSON, no I/O,
no event loop.  The network's interleaving is the
:class:`~repro.exec.scheduler.CooperativeScheduler`'s round robin: a
scripted client is one of its clients (weight 1) and makes at most one
request per visit, so concurrent results interleave on the shared disk
and buffer pool exactly like the concurrency experiment's batch
quanta::

    sched = CooperativeScheduler(db)
    client = sched.add_client(ScriptedClient("c1", front))
    client.prepare("probe", "SELECT * FROM micro WHERE c2 < ?")
    client.execute("probe", [100], label="probe:100")
    report = sched.run(cold=True)

Latency is response time on the shared simulated clock: from the moment
a client *submits* an execute (queue wait included) to the moment its
final ``rows`` frame arrives.  Each completed query's ledger is rebuilt
from the wire ``summary`` frame
(:meth:`~repro.runtime.CostLedger.from_dict`), so the benchmark's
conservation check — summed per-query ledgers equal the shared runtime
totals — exercises the protocol encoding, not just the engine.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import ExecutionError
from repro.exec.scheduler import QueryRecord
from repro.runtime import CostLedger
from repro.server.session import ServerFront

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.scheduler import CooperativeScheduler


#: Client states between scheduling visits.
_IDLE = "idle"          # ready to send the next script step
_WAITING = "waiting"    # execute parked in the admission queue
_FETCHING = "fetching"  # cursor open, pulling one rows frame per visit


class ScriptedClient:
    """A closed-loop protocol client replaying a prepared script.

    Script steps::

        client.prepare("probe", "SELECT * FROM micro WHERE c2 < ?")
        client.execute("probe", [100], label="probe:100")
        client.execute("SELECT * FROM micro", label="scan")  # inline SQL

    Each :meth:`step` (one scheduling visit) makes at most one request:
    processing pushed frames first, then either fetching one ``rows``
    frame from the open cursor or sending the next script step.
    Completed queries append :class:`~repro.exec.scheduler.QueryRecord`
    entries (ledger rebuilt from the wire summary) to the scheduler's
    records; ``rejected`` errors are collected — every other error
    frame raises, because the deterministic harness should never see
    one.
    """

    #: Scheduling weight: one request per visit.
    weight = 1

    def __init__(self, name: str, front: ServerFront):
        self.name = name
        self.front = front
        # Frames the server produces later (a parked execute's
        # ``executing`` grant) wait here until the next visit.
        self._inbox: deque[dict] = deque()
        self.session = front.session(sink=self._inbox.append)
        self._script: deque[tuple] = deque()
        self._statements: dict[str, int] = {}
        self._state = _IDLE
        self._cursor: int | None = None
        self._label = ""
        self._start_ms = 0.0
        self._next_id = 0
        #: (label, admission detail) per admission-rejected execute.
        self.rejections: list[tuple[str, dict]] = []

    # -- scripting -----------------------------------------------------------

    def prepare(self, key: str, sql: str) -> "ScriptedClient":
        """Queue a ``prepare``; later steps reference it by ``key``."""
        self._script.append(("prepare", key, sql))
        return self

    def execute(self, target: str, params: object = None,
                label: str | None = None) -> "ScriptedClient":
        """Queue an ``execute`` of a prepared key or inline SQL."""
        self._script.append(("execute", target, params,
                             label if label is not None else target))
        return self

    @property
    def queries_left(self) -> int:
        """Script steps not yet answered (the one in flight included)."""
        return len(self._script) + (self._state != _IDLE)

    def close(self) -> None:
        """Disconnect: closes the session and its live cursors."""
        self.session.close()

    # -- one scheduling visit ------------------------------------------------

    def step(self, scheduler: "CooperativeScheduler") -> bool:
        """Advance by at most one request; False once fully drained."""
        while self._inbox:
            self._process(self._inbox.popleft(), scheduler)
        if self._state == _FETCHING:
            self._request({"op": "fetch", "cursor": self._cursor},
                          scheduler)
            return True
        if self._state == _WAITING:
            # Parked in the admission queue.  Only a slot release starts
            # a parked execute, so with no slot held it never starts.
            if self.front.inflight == 0:
                raise ExecutionError(
                    f"client {self.name!r}: execute {self._label!r} is "
                    "parked with no statement in flight to free a slot"
                )
            return True
        if not self._script:
            return False
        action = self._script.popleft()
        if action[0] == "prepare":
            _kind, key, sql = action
            self._pending_key = key
            self._request({"op": "prepare", "sql": sql}, scheduler)
        else:
            _kind, target, params, label = action
            self._label = label
            self._start_ms = self.front.clock_ms
            frame = {"op": "execute", "params": params}
            if target in self._statements:
                frame["statement"] = self._statements[target]
            else:
                frame["sql"] = target
            self._state = _WAITING  # parked unless a response says else
            self._request(frame, scheduler)
        return True

    # -- internals -----------------------------------------------------------

    def _request(self, frame: dict,
                 scheduler: "CooperativeScheduler") -> None:
        frame["id"] = self._next_id
        self._next_id += 1
        for response in self.session.handle(frame):
            self._process(response, scheduler)

    def _process(self, frame: dict,
                 scheduler: "CooperativeScheduler") -> None:
        op = frame["op"]
        if op == "prepared":
            self._statements[self._pending_key] = frame["statement"]
        elif op == "executing":
            self._cursor = frame["cursor"]
            self._state = _FETCHING
        elif op == "rows":
            if frame["done"]:
                summary = frame["summary"]
                scheduler.records.append(QueryRecord(
                    client=self.name,
                    label=self._label,
                    rows=summary["rows"],
                    start_ms=self._start_ms,
                    finish_ms=self.front.clock_ms,
                    ledger=CostLedger.from_dict(summary["ledger"]),
                ))
                self._cursor = None
                self._state = _IDLE
        elif op == "error":
            if frame["code"] != "rejected":
                raise ExecutionError(
                    f"client {self.name!r}: unexpected protocol error "
                    f"{frame['code']}: {frame['message']}"
                )
            self.rejections.append((self._label, frame.get("detail", {})))
            self._state = _IDLE
        else:  # pragma: no cover - no other frames reach clients here
            raise ExecutionError(
                f"client {self.name!r}: unexpected frame op {op!r}"
            )

"""The asyncio serving front: NDJSON frames over TCP.

``python -m repro.server --tpch 0.1`` starts one engine and serves it
to any number of concurrent clients.  Each connection runs one
:class:`~repro.server.session.ServerSession`; all of them share one
:class:`~repro.runtime.EngineRuntime` through the admission
controller's in-flight slots, so the serving behavior — admit, degrade
to a bounded Smooth Scan, reject, or queue — is exactly what the
deterministic in-process benchmark measures.

Concurrency model: everything engine-side is synchronous and runs on
the event-loop thread, so protocol handling is atomic per frame.  Long
results never monopolize the loop — a ``query``'s drain pulls one
``rows`` frame per quantum and yields, so many streaming results
interleave on the shared substrate at batch granularity, the asyncio
rendering of the cooperative scheduler's round-robin quanta.

Flow control is two-layered: each connection buffers outbound frames in
an outbox drained by a writer task (``await writer.drain()`` propagates
TCP backpressure), and a drain task stops pulling rows from the engine
while its client's outbox is over the high-water mark — a slow reader
throttles its own queries, never the server.

Per-request wall-clock timeouts cover the two unbounded waits: a
``query`` streaming its result (the cursor is closed and a ``timeout``
error reports the partial measurement) and an execute parked in the
admission queue (the request is withdrawn).  Graceful shutdown —
``shutdown`` frame or SIGINT — stops accepting, flushes the admission
queue with ``shutting_down`` errors, lets in-flight statements drain
for a grace period, then disconnects whoever remains.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
from collections import deque

from repro.server import protocol
from repro.server.admission import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_SLA_MULTIPLE,
    AdmissionController,
)
from repro.server.protocol import ProtocolError, error_frame
from repro.server.session import ServerFront, ServerSession

#: Default TCP port (no registered service; high and memorable).
DEFAULT_PORT = 7421

#: Default per-request wall-clock timeout (seconds).
DEFAULT_TIMEOUT_S = 30.0

#: Outbox frames above which a connection's drains stop pulling rows.
DEFAULT_OUTBOX_LIMIT = 256

#: Grace period for in-flight statements during shutdown (seconds).
DEFAULT_GRACE_S = 5.0


class ClientConnection:
    """One TCP client: reader loop, writer loop, drain tasks."""

    def __init__(self, server: "ReproServer",
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.session: ServerSession = server.front.session(sink=self._sink)
        self._outbox: deque[dict] = deque()
        self._wakeup = asyncio.Event()
        self._can_buffer = asyncio.Event()
        self._can_buffer.set()
        #: ids of ``query`` requests whose drain has not started yet
        #: (parked in the admission queue; the grant arrives via sink).
        self._query_rids: set = set()
        self._tasks: set[asyncio.Task] = set()
        self._writer_task: asyncio.Task | None = None

    # -- outbound plumbing ---------------------------------------------------

    def _push(self, frame: dict) -> None:
        self._outbox.append(frame)
        self._wakeup.set()
        if len(self._outbox) >= self.server.outbox_limit:
            self._can_buffer.clear()

    def _sink(self, frame: dict) -> None:
        """Frames the front produces outside a request/response call."""
        rid = frame.get("id")
        self._push(frame)
        if (frame.get("op") == "executing" and rid in self._query_rids):
            # A parked query got its slot: stream it out.
            self._query_rids.discard(rid)
            self._spawn(self._drain_cursor(rid, frame["cursor"]))

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _writer_loop(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while self._outbox:
                frame = self._outbox.popleft()
                self.writer.write(protocol.encode_frame(frame))
                if len(self._outbox) < self.server.outbox_limit:
                    self._can_buffer.set()
                await self.writer.drain()
            self._can_buffer.set()

    # -- the connection ------------------------------------------------------

    async def run(self) -> None:
        self._writer_task = asyncio.ensure_future(self._writer_loop())
        self._push(self.session.hello())
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = protocol.decode_frame(line)
                except ProtocolError as exc:
                    # Unparseable *lines* close the connection (the
                    # stream may be desynchronized); frame-shaped
                    # mistakes get structured errors instead.
                    self._push(error_frame(None, exc.code, exc.message))
                    break
                await self._dispatch(frame)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            await self._teardown()

    async def _dispatch(self, frame: dict) -> None:
        op = frame.get("op")
        rid = frame.get("id")
        hashable_rid = isinstance(rid, (str, int))
        if op == "query" and hashable_rid:
            # Decompose: start as a plain execute, then stream the rows
            # quantum-by-quantum so other clients interleave.
            started = self.session.handle(dict(frame, op="execute"))
            for response in started:
                self._push(response)
            executing = next((f for f in started
                              if f.get("op") == "executing"), None)
            if executing is not None:
                self._spawn(self._drain_cursor(rid, executing["cursor"]))
            elif not started:  # parked: the sink starts the drain later
                self._query_rids.add(rid)
                self._spawn(self._parked_timeout(rid))
            return
        responses = self.session.handle(frame)
        for response in responses:
            self._push(response)
        if op == "execute" and not responses and hashable_rid:
            self._spawn(self._parked_timeout(rid))
        if any(f.get("op") == "shutting_down" for f in responses):
            asyncio.ensure_future(self.server.shutdown())

    async def _drain_cursor(self, rid, cid: int) -> None:
        try:
            await asyncio.wait_for(self._drain_inner(rid, cid),
                                   self.server.request_timeout_s)
        except asyncio.TimeoutError:
            closed = self.session.handle(
                {"op": "close", "id": rid, "cursor": cid})
            summary = closed[0].get("summary") if closed else None
            self._push(error_frame(
                rid, protocol.ERR_TIMEOUT,
                "query timed out mid-stream; cursor closed",
                detail=summary,
            ))

    async def _drain_inner(self, rid, cid: int) -> None:
        while True:
            await self._can_buffer.wait()      # outbox backpressure
            frame = self.session.drain_step(rid, cid)
            if frame is None:
                return
            self._push(frame)
            if frame.get("done") or frame["op"] == "error":
                return
            await asyncio.sleep(0)             # yield one quantum

    async def _parked_timeout(self, rid) -> None:
        await asyncio.sleep(self.server.request_timeout_s)
        if self.session.front.cancel_parked(self.session, rid):
            self._query_rids.discard(rid)
            self._push(error_frame(
                rid, protocol.ERR_TIMEOUT,
                "request timed out waiting for an in-flight slot",
            ))

    async def _teardown(self) -> None:
        for task in list(self._tasks):
            task.cancel()
        self.session.close()
        if self._writer_task is not None:
            self._writer_task.cancel()
        with contextlib.suppress(Exception):
            while self._outbox:
                self.writer.write(
                    protocol.encode_frame(self._outbox.popleft()))
            await self.writer.drain()
        with contextlib.suppress(Exception):
            self.writer.close()
            await self.writer.wait_closed()
        self.server._conns.discard(self)


class ReproServer:
    """The serving endpoint: one engine, one admission front, N sockets."""

    def __init__(self, db, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT,
                 options=None,
                 sla_multiple: float = DEFAULT_SLA_MULTIPLE,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 request_timeout_s: float = DEFAULT_TIMEOUT_S,
                 outbox_limit: int = DEFAULT_OUTBOX_LIMIT,
                 grace_s: float = DEFAULT_GRACE_S):
        self.front = ServerFront(
            db, options=options,
            admission=AdmissionController(db, sla_multiple=sla_multiple,
                                          max_inflight=max_inflight),
        )
        self.host = host
        self.port = port
        self.request_timeout_s = request_timeout_s
        self.outbox_limit = outbox_limit
        self.grace_s = grace_s
        self._conns: set[ClientConnection] = set()
        self._tcp: asyncio.AbstractServer | None = None
        self._stopped = asyncio.Event()
        self._shutting_down = False

    async def start(self) -> None:
        """Bind and start accepting; resolves the actual port."""
        self._tcp = await asyncio.start_server(self._accept,
                                               self.host, self.port)
        self.port = self._tcp.sockets[0].getsockname()[1]

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        conn = ClientConnection(self, reader, writer)
        self._conns.add(conn)
        asyncio.ensure_future(conn.run())

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful stop: drain in-flight work, then disconnect."""
        if self._shutting_down:
            return
        self._shutting_down = True
        self.front.begin_drain()
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
        deadline = asyncio.get_event_loop().time() + self.grace_s
        while (self.front.inflight > 0
               and asyncio.get_event_loop().time() < deadline):
            await asyncio.sleep(0.01)
        for conn in list(self._conns):
            await conn._teardown()
        self._stopped.set()


async def _serve(server: ReproServer) -> None:
    await server.start()
    # The readiness line scripted clients (and the CI smoke) wait for.
    print(f"repro server listening on {server.host}:{server.port}",
          flush=True)
    await server.serve_forever()
    print("repro server stopped", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a simulated engine over NDJSON/TCP with "
                    "SLA-aware admission control.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help="TCP port (0 picks a free one; default "
                             f"{DEFAULT_PORT})")
    parser.add_argument("--rows", type=int, default=60_000,
                        help="micro-table size (default 60000)")
    parser.add_argument("--tpch", type=float, default=None, metavar="SF",
                        help="serve tuned TPC-H-lite at this scale factor "
                             "instead of the micro table")
    parser.add_argument("--mode", default="tuned",
                        choices=("original", "tuned", "smooth"),
                        help="planner mode for served statements")
    parser.add_argument("--sla", type=float, default=DEFAULT_SLA_MULTIPLE,
                        help="SLA budget as a multiple of the full-scan "
                             f"cost (default {DEFAULT_SLA_MULTIPLE})")
    parser.add_argument("--max-inflight", type=int,
                        default=DEFAULT_MAX_INFLIGHT,
                        help="concurrently executing statements before "
                             "the admission queue engages")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                        help="per-request wall-clock timeout (seconds)")
    args = parser.parse_args(argv)
    from repro.sql.repl import load_database
    from repro.workloads.tpch.queries import mode_options
    db, _default_mode = load_database(args)
    server = ReproServer(
        db, host=args.host, port=args.port,
        options=mode_options(args.mode),
        sla_multiple=args.sla, max_inflight=args.max_inflight,
        request_timeout_s=args.timeout,
    )
    try:
        asyncio.run(_serve(server))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke
    sys.exit(main())

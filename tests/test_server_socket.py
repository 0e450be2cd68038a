"""The asyncio transport end-to-end: NDJSON frames over real sockets.

Starts a :class:`~repro.server.server.ReproServer` on an ephemeral port
inside the test's event loop and speaks the protocol through
``asyncio.open_connection`` — covering what the sans-IO tests cannot:
the hello banner on connect, interleaved streaming drains, parked
requests granted through the sink, and graceful shutdown.
"""

import asyncio

import pytest

from repro.database import Database
from repro.exec.misc import Project
from repro.experiments.concurrency import CLASSIC_OPTIONS
from repro.server import protocol
from repro.server.server import ReproServer
from repro.workloads.micro import build_micro_table

SQL = "SELECT c1, c2 FROM micro WHERE c2 >= :lo AND c2 < :hi"


@pytest.fixture(scope="module")
def micro_db():
    db = Database()
    build_micro_table(db, num_tuples=12_000, seed=7)
    db.analyze()
    return db


class AsyncClient:
    """A tiny NDJSON peer for the test's event loop."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        client = cls(reader, writer)
        client.hello = await client.recv()
        return client

    async def send(self, frame):
        self.writer.write(protocol.encode_frame(frame))
        await self.writer.drain()

    async def recv(self):
        line = await asyncio.wait_for(self.reader.readline(), timeout=30)
        assert line, "server closed the connection"
        return protocol.decode_frame(line)

    async def roundtrip(self, frame):
        await self.send(frame)
        response = await self.recv()
        assert response["id"] == frame["id"]
        return response

    async def drain_rows(self, rid):
        """Collect ``rows`` frames for ``rid`` until done/error."""
        rows = []
        while True:
            frame = await self.recv()
            if frame["id"] != rid:
                continue
            if frame["op"] == "error":
                return rows, frame
            if frame["op"] == "rows":
                rows.extend(frame["rows"])
                if frame["done"]:
                    return rows, frame

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def run(coro):
    asyncio.run(coro)


async def start_server(db, **kwargs):
    server = ReproServer(db, port=0, options=CLASSIC_OPTIONS, **kwargs)
    await server.start()
    return server


def test_prepare_execute_fetch_over_sockets(micro_db):
    async def scenario():
        server = await start_server(micro_db)
        client = await AsyncClient.connect(server.port)
        assert client.hello["op"] == "hello"
        assert client.hello["protocol"] == protocol.PROTOCOL_VERSION

        prepared = await client.roundtrip(
            {"op": "prepare", "id": 1, "sql": SQL})
        assert prepared["op"] == "prepared"
        executing = await client.roundtrip(
            {"op": "execute", "id": 2,
             "statement": prepared["statement"],
             "params": {"lo": 0, "hi": 200}})
        assert executing["op"] == "executing"
        assert executing["admission"]["action"] == "admit"
        rows = []
        while True:
            frame = await client.roundtrip(
                {"op": "fetch", "id": 3, "cursor": executing["cursor"],
                 "n": 32})
            rows.extend(frame["rows"])
            if frame["done"]:
                break
        assert frame["summary"]["rows"] == len(rows)
        assert "ledger" in frame["summary"]
        await client.close()
        await server.shutdown()

    run(scenario())


def test_query_streams_and_interleaves(micro_db):
    async def scenario():
        server = await start_server(micro_db)
        first = await AsyncClient.connect(server.port)
        second = await AsyncClient.connect(server.port)
        # Two queries streaming concurrently on one engine: both
        # complete, each sees only its own frames.
        await first.send({"op": "query", "id": "q1", "sql": SQL,
                          "params": {"lo": 0, "hi": 3_000}})
        await second.send({"op": "query", "id": "q2", "sql": SQL,
                           "params": {"lo": 3_000, "hi": 6_000}})
        rows1, done1 = await first.drain_rows("q1")
        rows2, done2 = await second.drain_rows("q2")
        assert done1["op"] == "rows" and done2["op"] == "rows"
        assert all(0 <= c2 < 3_000 for _c1, c2 in rows1)
        assert all(3_000 <= c2 < 6_000 for _c1, c2 in rows2)
        assert len(rows1) == done1["summary"]["rows"]
        await first.close()
        await second.close()
        await server.shutdown()

    run(scenario())


def test_rejected_statement_over_sockets(micro_db):
    async def scenario():
        # Half a full scan: the probe admits, the full scan cannot be
        # bounded and is rejected with the priced decision.
        server = await start_server(micro_db, sla_multiple=0.5)
        client = await AsyncClient.connect(server.port)
        await client.send({"op": "query", "id": 1,
                           "sql": "SELECT * FROM micro"})
        _rows, error = await client.drain_rows(1)
        assert error["op"] == "error"
        assert error["code"] == protocol.ERR_REJECTED
        assert error["detail"]["estimated_cost"] > \
            error["detail"]["budget"]
        await client.close()
        await server.shutdown()

    run(scenario())


def test_graceful_shutdown_via_frame(micro_db):
    async def scenario():
        server = await start_server(micro_db)
        client = await AsyncClient.connect(server.port)
        ack = await client.roundtrip({"op": "shutdown", "id": 1})
        assert ack["op"] == "shutting_down"
        # The server tears the connection down after the grace drain.
        line = await asyncio.wait_for(client.reader.readline(),
                                      timeout=30)
        assert line == b""
        await client.close()
        await asyncio.wait_for(server.serve_forever(), timeout=30)

    run(scenario())


def test_malformed_line_gets_error_then_disconnect(micro_db):
    async def scenario():
        server = await start_server(micro_db)
        client = await AsyncClient.connect(server.port)
        client.writer.write(b"this is not json\n")
        await client.writer.drain()
        error = await client.recv()
        assert error["op"] == "error"
        assert error["code"] == protocol.ERR_BAD_FRAME
        line = await asyncio.wait_for(client.reader.readline(),
                                      timeout=30)
        assert line == b""  # unparseable lines desync: connection ends
        await client.close()
        await server.shutdown()

    run(scenario())


def test_an_engine_bug_is_an_internal_error_over_sockets(micro_db,
                                                         monkeypatch):
    """A ``RuntimeError`` inside an operator's ``batches`` reaches the
    client as an ``internal`` error frame — from a streamed ``query`` and
    from ``execute`` + ``fetch`` — with no slot held and no cursor left,
    and the same connection then answers a normal query."""
    def batches(self, ctx):
        raise RuntimeError("injected operator bug")
        yield  # pragma: no cover - makes this a generator

    async def scenario():
        server = await start_server(micro_db)
        client = await AsyncClient.connect(server.port)
        params = {"lo": 0, "hi": 200}
        await client.send({"op": "query", "id": "ok1", "sql": SQL,
                           "params": params})
        expected, _done = await client.drain_rows("ok1")
        monkeypatch.setattr(Project, "batches", batches)
        await client.send({"op": "query", "id": "bad", "sql": SQL,
                           "params": params})
        _rows, error = await client.drain_rows("bad")
        assert error["op"] == "error"
        assert error["code"] == protocol.ERR_INTERNAL
        assert "RuntimeError" in error["message"]
        executing = await client.roundtrip(
            {"op": "execute", "id": "ex", "sql": SQL, "params": params})
        error = await client.roundtrip(
            {"op": "fetch", "id": "fe", "cursor": executing["cursor"]})
        assert error["op"] == "error"
        assert error["code"] == protocol.ERR_INTERNAL
        (conn,) = server._conns
        assert server.front.inflight == 0
        assert conn.session.conn.open_cursors == ()
        monkeypatch.undo()
        await client.send({"op": "query", "id": "ok2", "sql": SQL,
                           "params": params})
        rows, done = await client.drain_rows("ok2")
        assert done["op"] == "rows" and rows == expected
        await client.close()
        await server.shutdown()

    run(scenario())

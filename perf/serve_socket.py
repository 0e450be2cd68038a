"""The serve_socket workload: the real asyncio server over loopback.

Two closed-loop ``SocketClient`` connections, one thread each, run a seeded
mix on one prepared statement against ``ReproServer`` in a child process.
The per-layer numbers come from replaying the same schedules in-process
through ``ServerSession.handle`` with the frame codec timed around it; the
difference between the two is what the event loop and the socket cost.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

from builders import (SERVE_FORCED_SQL, SERVE_OPTIONS, SERVE_SQL,
                      SLA_MULTIPLE, Sizes)
from harness import (EngineCounts, PassResult, Trace, cpu_now, gate,
                     median_us, now, percentile, timed)
from oracle import MicroOracle
from repro.runtime import CostLedger
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.client import SocketClient
from repro.server.session import ServerFront
from repro.workloads.micro import VALUE_DOMAIN

CONNECTIONS = 2             # nproc is 2: one core each for clients and server
ROWS_PER_FRAME = 256
VERDICTS = {"admit": "admitted", "split": "split", "degrade": "degraded"}

#: kind -> (share of the mix, c2 range width or None for the forced reject)
MIX = {
    "narrow": (0.70, 43),        # ~26 rows at 60K rows: admitted
    "range": (0.20, 1_000),      # 1%: ~600 rows, 3 fetch frames
    "drifted": (0.08, 20_000),   # 20% through the index recipe cached at
                                 # 0.05%: priced over budget, split 4 ways
    "forced": (0.02, None),      # force_path(index) on 50%: rejected
}
FORCED_HI = VALUE_DOMAIN // 2


class ServerChild:
    """The server process, its port and its usage side channel."""

    def __init__(self, rows: int) -> None:
        self._spawned = time.time()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("serve_child.py")),
             "--rows", str(rows)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def wait_ready(self) -> None:
        """Block until the server listens and has answered with ``hello``.

        ``start_s`` is what starting a server costs beyond building its
        database: interpreter and imports, binding, the first connection.
        The child stamps its readiness itself, so the caller may build
        other things meanwhile and collect the child late.
        """
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("server child exited before it was ready")
        ready = json.loads(line)
        self.port = ready.pop("port")
        booted = ready.pop("ready_unix") - self._spawned
        t0 = now()
        client = SocketClient(port=self.port)   # reads the hello frame
        client.close()
        self.timings = dict(
            ready, start_s=booted - sum(ready.values()) + now() - t0)

    def usage(self) -> dict:
        """The child's CPU seconds and peak RSS so far."""
        self.proc.stdin.write("usage\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def connection_schedule(rng: random.Random, statements: int) -> list:
    """One connection's ``(kind, lo, hi)`` items: exact mix, seeded order."""
    items = []
    for kind, (share, width) in MIX.items():
        for _ in range(round(share * statements)):
            if width is None:
                items.append((kind, 0, FORCED_HI))
            else:
                lo = rng.randrange(VALUE_DOMAIN - width)
                items.append((kind, lo, lo + width))
    rng.shuffle(items)
    return items


def check_statement(kind: str, lo: int, hi: int, rows: list, last: dict,
                    oracle: MicroOracle) -> str | None:
    """None when the exchange went as the schedule expects."""
    if kind == "forced":
        if last.get("op") == "error" and last.get("code") == "rejected":
            return None
        return f"forced index scan was not rejected: {last.get('op')}"
    if last.get("op") != "rows":
        return f"{kind} [{lo},{hi}): {last.get('code')}: {last.get('message')}"
    if last["summary"]["rows"] != len(rows):
        return (f"{kind} [{lo},{hi}): summary says {last['summary']['rows']} "
                f"rows, received {len(rows)}")
    return oracle.check_range(rows, lo, hi)


def run_exchange(roundtrip, handles: dict, item, result: PassResult,
                 oracle: MicroOracle) -> None:
    """One statement: execute, then fetch frames until done.

    ``roundtrip(frame) -> frame`` is the transport: the socket client's, or
    the in-process replay's.
    """
    kind, lo, hi = item
    statement = handles["forced" if kind == "forced" else "plain"]
    w0, c0 = now(), cpu_now()
    last = roundtrip({"op": "execute", "statement": statement,
                      "params": {"lo": lo, "hi": hi}})
    frames = 1
    rows: list = []
    if last["op"] == "executing":
        result.count(VERDICTS[last["admission"]["action"]])
        cursor = last["cursor"]
        while True:
            last = roundtrip({"op": "fetch", "cursor": cursor,
                              "n": ROWS_PER_FRAME})
            frames += 1
            if last["op"] != "rows":
                break
            rows += last["rows"]
            if last["done"]:
                break
    elif last.get("code") == "rejected":
        result.count("rejected")
    c1, w1 = cpu_now(), now()
    result.add(w1 - w0, c1 - c0, len(rows),
               check_statement(kind, lo, hi, rows, last, oracle))
    result.count("frames_out", frames)
    result.count("fetch_calls", frames - 1)
    if last["op"] == "rows":
        result.count_ledger(CostLedger.from_dict(last["summary"]["ledger"]))


def prepare_handles(roundtrip) -> dict:
    return {name: roundtrip({"op": "prepare", "sql": sql})["statement"]
            for name, sql in (("plain", SERVE_SQL),
                              ("forced", SERVE_FORCED_SQL))}


class ServeSocket:
    name = "serve_socket"
    why = ("the asyncio server in a child process, 2 closed-loop socket "
           "clients: 70% narrow probes, 20% 1% ranges, 8% drifted 20% replays "
           "(split), 2% expected rejects; event loop, JSON, socket, admission")

    #: With two connections interleaving on one warm pool the simulated
    #: ledgers depend on arrival order; verdicts, frames and rows do not.
    REPEATING = ("admitted", "split", "degraded", "rejected", "frames_out",
                 "fetch_calls")

    def build(self, sizes: Sizes):
        child = ServerChild(sizes.serve_rows)
        child.wait_ready()
        return child, child.timings

    def open(self, child: ServerChild, sizes: Sizes):
        clients = [SocketClient(port=child.port) for _ in range(CONNECTIONS)]
        rows, last = clients[0].query("SELECT c1, c2 FROM micro")
        if last.get("op") != "rows":
            raise RuntimeError(f"oracle scan failed: {last}")
        return SimpleNamespace(
            child=child, clients=clients, oracle=MicroOracle(rows),
            handles=[prepare_handles(c.roundtrip) for c in clients])

    def schedule(self, seed: int, sizes: Sizes) -> list:
        rng = random.Random(seed)
        return [connection_schedule(rng, sizes.serve_statements)
                for _ in range(CONNECTIONS)]

    def run_pass(self, state, schedules: list) -> PassResult:
        barrier = threading.Barrier(CONNECTIONS)

        def connection(index: int):
            result = PassResult()
            barrier.wait(timeout=60)
            start = now()
            for item in schedules[index]:
                run_exchange(state.clients[index].roundtrip,
                             state.handles[index], item, result, state.oracle)
            result.close_lane()
            return start, now(), result

        cpu_before = state.child.usage()["cpu_s"]
        with ThreadPoolExecutor(CONNECTIONS) as pool:
            done = [f.result() for f in
                    [pool.submit(connection, i) for i in range(CONNECTIONS)]]
        total = PassResult()
        for _start, _end, result in done:
            total.merge(result)
        total.busy_s = max(d[1] for d in done) - min(d[0] for d in done)
        total.child_cpu_s = state.child.usage()["cpu_s"] - cpu_before
        total.counts = {k: total.counts.get(k, 0) for k in self.REPEATING}
        return total

    def extra_rss_kb(self, state) -> int:
        return state.child.usage()["rss_kb"]

    def discard(self, child: ServerChild) -> None:
        child.stop()

    def close(self, state) -> None:
        for client in state.clients:
            client.close()
        state.child.stop()


class NullTrace:
    """Stands in for a Trace on the untraced replay."""

    def begin(self, name, parent=-1, statement=-1) -> int:
        return 0

    def end(self, index) -> None:
        pass


class Replay:
    """The schedules replayed in-process through ``ServerSession.handle``.

    Every frame still crosses the codec in both directions — request
    encoded and decoded, response encoded and decoded — so the replay does
    everything the socket path does except the event loop and the socket.
    """

    def __init__(self, db, oracle: MicroOracle) -> None:
        self.db = db
        self.oracle = oracle
        self.bytes_out = 0
        self.row_bytes = 0
        self.queue_wait_p50 = 0.0

    def run(self, schedules: list, trace) -> PassResult:
        self.db.cold_run()      # same substrate state for every replay
        front = ServerFront(
            self.db, options=SERVE_OPTIONS,
            admission=AdmissionController(self.db, sla_multiple=SLA_MULTIPLE))
        self.bytes_out = self.row_bytes = 0
        result = PassResult()
        engine = EngineCounts(self.db)
        number = 0
        for schedule in schedules:
            session = front.session()

            def via(root: int, statement: int, session=session):
                return lambda request: self._roundtrip(
                    session, request, trace, root, statement)

            handles = prepare_handles(via(-1, -1))
            for item in schedule:
                root = trace.begin(Trace.ROOT, statement=number)
                run_exchange(via(root, number), handles, item, result,
                             self.oracle)
                trace.end(root)
                number += 1
            result.close_lane()
            session.close()
        engine.into(result)
        self.queue_wait_p50 = front.admission.stats.queue_wait_p50_ms
        return result

    def _roundtrip(self, session, request: dict, trace, root: int,
                   statement: int) -> dict:
        request = dict(request, id=0)
        span = trace.begin("client.encode", root, statement)
        wire = protocol.encode_frame(request)
        trace.end(span)
        span = trace.begin("server.decode", root, statement)
        frame = protocol.decode_frame(wire)
        trace.end(span)
        span = trace.begin(f"server.handle_{request['op']}", root, statement)
        (response,) = session.handle(frame)
        trace.end(span)
        full = len(response.get("rows", ())) == ROWS_PER_FRAME
        span = trace.begin("server.encode_rows" if full else "server.encode",
                           root, statement)
        wire = protocol.encode_frame(response)
        trace.end(span)
        self.bytes_out += len(wire)
        if response["op"] == "rows":
            self.row_bytes += len(wire)
        span = trace.begin("client.decode", root, statement)
        reply = protocol.decode_frame(wire)
        trace.end(span)
        return reply


def layer_run(state, schedules: list, db,
              socket_passes: list[PassResult]) -> tuple[dict, dict]:
    """The ``server.*`` metrics, and serve_socket's own traced-run record.

    ``socket_passes`` are measured socket passes over ``schedules`` on
    ``state``; ``db`` is an in-process serving database for the replay.
    """
    replay = Replay(db, state.oracle)
    replay.run(schedules, NullTrace())      # warm-up, as on the socket
    plain = replay.run(schedules, NullTrace())
    trace = Trace()
    traced = replay.run(schedules, trace)
    last = socket_passes[-1]
    socket_ms = [ms for p in socket_passes for ms in p.latencies_ms]
    inproc_p50 = percentile(plain.latencies_ms, 50)

    front = ServerFront(db, options=SERVE_OPTIONS)
    session = front.session()
    statement = session.conn.prepare(SERVE_SQL)
    rng = random.Random(0)
    narrow = MIX["narrow"][1]
    price = []
    for _ in range(200):
        lo = rng.randrange(VALUE_DOMAIN - narrow)
        params = {"lo": lo, "hi": lo + narrow}
        price += timed(lambda p=params: front.admission.decide(
            session.conn, statement, p), 1)
    session.close()

    def span_us(name: str) -> float:
        return median_us(trace.durations(name))

    server = {
        "server.decode_us": span_us("server.decode"),
        "server.encode_rows_us": span_us("server.encode_rows"),
        "server.bytes_per_row": replay.row_bytes / traced.rows,
        "server.price_us": median_us(price),
        "server.handle_prepare_us": span_us("server.handle_prepare"),
        "server.handle_execute_us": span_us("server.handle_execute"),
        "server.handle_fetch_us": span_us("server.handle_fetch"),
        "server.inproc_p50_ms": inproc_p50,
        "server.transport_ms": percentile(socket_ms, 50) - inproc_p50,
        "server.admitted": last.counts["admitted"],
        "server.split": last.counts["split"],
        "server.degraded": last.counts["degraded"],
        "server.rejected": last.counts["rejected"],
        "server.queue_wait_p50_sim_ms": replay.queue_wait_p50,
        "server.frames_out": last.counts["frames_out"],
        "server.bytes_out": replay.bytes_out,
        "server.child_cpu_share": last.child_cpu_s / last.cpu_s,
        "workloads.shard_s": state.child.timings["shard_s"],
        "server.start_s": state.child.timings["start_s"],
    }
    own = {
        "trace": trace,
        "trace.overhead_ratio": traced.busy_s / plain.busy_s,
        "tail.p99_ms": percentile(socket_ms, 99),
        "counts": plain.counts,
        **gate([*socket_passes, plain, traced], socket_passes,
               [plain, traced]),
    }
    return server, own

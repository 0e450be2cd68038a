"""Server child for the ``serve_socket`` workload.

Builds the serving database, starts the real asyncio ``ReproServer`` on an
ephemeral loopback port and prints one JSON readiness line (port plus the
build timings).  After that, every line the parent writes to this process's
stdin is answered with one JSON line holding the child's CPU time and peak
RSS, which is how the parent charges the server's cost to the workload.
Closing stdin shuts the server down.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from builders import SERVE_OPTIONS, SLA_MULTIPLE, build_serving_db  # noqa: E402
from harness import peak_rss_kb  # noqa: E402
from repro.server.server import ReproServer  # noqa: E402


def watch_stdin(loop: asyncio.AbstractEventLoop, server: ReproServer) -> None:
    for _line in sys.stdin:
        print(json.dumps({"cpu_s": time.process_time(),
                          "rss_kb": peak_rss_kb()}), flush=True)
    asyncio.run_coroutine_threadsafe(server.shutdown(), loop).result()


async def serve(rows: int) -> None:
    db, timings = build_serving_db(rows)
    server = ReproServer(db, port=0, options=SERVE_OPTIONS,
                         sla_multiple=SLA_MULTIPLE)
    await server.start()
    print(json.dumps(dict(timings, port=server.port,
                          ready_unix=time.time())), flush=True)
    watcher = threading.Thread(
        target=watch_stdin, args=(asyncio.get_running_loop(), server),
        daemon=True)
    watcher.start()
    await server.serve_forever()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rows", type=int, required=True)
    args = parser.parse_args()
    asyncio.run(serve(args.rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())

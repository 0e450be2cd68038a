"""Injected I/O faults: a read that raises mid-statement.

The fault is injected from outside — the runtime's ``SimulatedDisk`` has
its ``read_run`` or ``read_page`` patched to raise ``StorageError`` on
the k-th call — under a full scan, a Smooth Scan morphing region and an
index scan, each driven through ``conn.cursor()``.  After each fault:

* the error reaches the caller;
* no attribution window is left open and no streaming run stays live;
* no page whose read raised is resident in the buffer pool;
* the next statement on the same connection reports exactly the ledger
  it reports on a freshly built, cold runtime.

Degenerate sizes (no fault, just edges) are in
``tests/test_degenerate_sizes.py``.
"""

import random

import pytest

from repro.config import EngineConfig
from repro.database import Database
from repro.errors import StorageError
from repro.storage.types import Schema

QUERY = ("SELECT /*+ force_path({path}) */ c1, c2, c3 FROM t "
         "WHERE c2 >= 100 AND c2 < {hi}")


def build(pool_pages=None, rows=20_000, seed=3):
    db = Database(config=EngineConfig(buffer_pool_pages=pool_pages))
    rng = random.Random(seed)
    table = db.load_table(
        "t", Schema.of_ints(["c1", "c2", "c3"]),
        [(i, rng.randrange(1_000), rng.randrange(10)) for i in range(rows)],
    )
    db.create_index("t", "c2")
    return db, table


def _fail_on(monkeypatch, disk, method, k):
    """Make ``disk.<method>`` raise on its ``k``-th call; return the
    ``(file_id, first_page, n_pages)`` spans of the reads that raised."""
    real = getattr(disk, method)
    calls, failed = [], []

    def read(file_id, page_id, *args, **kwargs):
        calls.append(file_id)
        if len(calls) == k:
            n = args[0] if method == "read_run" else 1
            failed.append((file_id, page_id, n))
            raise StorageError(f"injected fault in {method} #{k}")
        return real(file_id, page_id, *args, **kwargs)

    monkeypatch.setattr(disk, method, read)
    return failed


def _ledger(cursor):
    run = cursor.result().run
    return (run.row_count, run.io_ms, run.cpu_ms, run.disk,
            run.buffer_hits, run.buffer_misses)


def _run(conn, sql):
    cursor = conn.cursor().execute(sql)
    rows = cursor.fetchall()
    return rows, _ledger(cursor)


@pytest.mark.parametrize("pool_pages", [None, 8])
@pytest.mark.parametrize("path, hi, method, k", [
    ("full", 300, "read_run", 3),       # the third extent of the scan
    ("smooth", 110, "read_run", 4),     # the fourth morphing region
    ("smooth", 300, "read_run", 2),     # an early region, at 20%
    ("index", 110, "read_page", 40),    # a heap page under the block walk
    ("index", 110, "read_page", 2),     # the index descent
])
def test_a_read_fault_surfaces_and_leaves_the_runtime_clean(
        monkeypatch, pool_pages, path, hi, method, k):
    db, _table = build(pool_pages)
    runtime = db.runtime
    conn = db.connect()
    sql = QUERY.format(path=path, hi=hi)
    with monkeypatch.context() as patch:
        failed = _fail_on(patch, runtime.disk, method, k)
        cursor = conn.cursor().execute(sql)
        with pytest.raises(StorageError, match="injected"):
            cursor.fetchall()
    assert failed, "the fault was never reached"

    # No window open, no run live: the runtime may cold-start again.
    assert runtime._active is None and runtime._shard_active is None
    assert runtime.clock.ledger is None
    assert runtime.live_streams == ()

    # No page whose read raised is resident.
    (file_id, first, n), = failed
    assert not any((file_id, pid) in runtime.buffer._pages
                   for pid in range(first, first + n))

    # The next statement on the same connection is the one a fresh cold
    # runtime runs, to the last charge.
    rows, ledger = _run(conn, sql)
    fresh_db, _ = build(pool_pages)
    fresh_rows, fresh_ledger = _run(fresh_db.connect(), sql)
    assert rows == fresh_rows and len(rows) == ledger[0] > 0
    assert ledger == fresh_ledger


def test_a_fault_after_some_batches_were_fetched():
    """A cursor that already handed out rows fails on a later pull; the
    rows it handed out stay the caller's and the run is closed."""
    db, _table = build()
    conn = db.connect()
    sql = QUERY.format(path="full", hi=300)
    with pytest.MonkeyPatch.context() as patch:
        _fail_on(patch, db.runtime.disk, "read_run", 2)
        cursor = conn.cursor().execute(sql)
        first = cursor.fetchmany(5)
        with pytest.raises(StorageError, match="injected"):
            cursor.fetchall()
    assert len(first) == 5
    assert cursor.result().run.extras["partial"]
    assert cursor.stream.closed and db.runtime.live_streams == ()
    assert _run(conn, sql)[1] == _run(build()[0].connect(), sql)[1]

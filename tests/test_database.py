"""Database facade: schema ops, cold runs, buffer autosizing."""

import pytest

from repro.config import EngineConfig
from repro.database import Database
from repro.errors import StorageError
from repro.storage.types import Schema


def test_create_and_lookup_table(db):
    table = db.create_table("t", Schema.of_ints(["a"]))
    assert db.table("t") is table
    with pytest.raises(StorageError):
        db.table("missing")


def test_duplicate_table_rejected(db):
    db.create_table("t", Schema.of_ints(["a"]))
    with pytest.raises(StorageError):
        db.create_table("t", Schema.of_ints(["a"]))


def test_load_table_counts(db):
    table = db.load_table("t", Schema.of_ints(["a", "b"]),
                          ((i, i * 2) for i in range(500)))
    assert table.row_count == 500
    assert table.num_pages > 0


def test_create_index_registers_and_fills(db):
    table = db.load_table("t", Schema.of_ints(["a", "b"]),
                          ((i, i % 7) for i in range(100)))
    index = db.create_index("t", "b")
    assert table.has_index("b")
    assert len(index) == 100
    db.drop_index("t", "b")
    assert not table.has_index("b")


def test_duplicate_index_rejected(db):
    db.load_table("t", Schema.of_ints(["a", "b"]),
                  ((i, i % 7) for i in range(100)))
    first = db.create_index("t", "b")
    with pytest.raises(StorageError):
        db.create_index("t", "b")
    # The original index stays registered and intact.
    assert db.table("t").index_on("b") is first
    assert len(first) == 100


def test_drop_missing_index_rejected(db):
    db.load_table("t", Schema.of_ints(["a", "b"]), [])
    with pytest.raises(StorageError):
        db.drop_index("t", "b")
    with pytest.raises(StorageError):
        db.drop_index("missing", "b")


def test_drop_then_recreate_index(db):
    db.load_table("t", Schema.of_ints(["a", "b"]),
                  ((i, i % 7) for i in range(50)))
    db.create_index("t", "b")
    db.drop_index("t", "b")
    rebuilt = db.create_index("t", "b")  # rebuild after drop is fine
    assert db.table("t").index_on("b") is rebuilt


def test_insert_maintains_indexes(db):
    table = db.load_table("t", Schema.of_ints(["a", "b"]), [])
    db.create_index("t", "b")
    assert table.insert_many([(1, 42)]) == 1
    ctx = db.context()
    assert list(table.index_on("b").lookup(ctx, 42)) == [0]


def test_cold_run_resets_everything(db):
    table = db.load_table("t", Schema.of_ints(["a"]),
                          ((i,) for i in range(1000)))
    ctx = db.context()
    ctx.get_page(table.heap, 0)
    assert db.disk.stats.pages_read == 1
    db.cold_run()
    assert db.disk.stats.pages_read == 0
    assert db.clock.total_ms == 0
    assert len(db.buffer) == 0


def test_buffer_autosizes_to_heap_fraction():
    db = Database()  # buffer_pool_pages=None -> auto
    db.load_table("t", Schema.of_ints(["a"]),
                  ((i,) for i in range(2_000_000 // 4)))
    # tuples/page for a 28-byte tuple: 7680//28 = 274 -> ~1825 pages
    assert db.buffer.capacity_pages == max(64, db.table("t").num_pages // 8)


def test_explicit_buffer_size_respected():
    db = Database(config=EngineConfig(buffer_pool_pages=33))
    db.load_table("t", Schema.of_ints(["a"]), ((i,) for i in range(10_000)))
    db.cold_run()
    assert db.buffer.capacity_pages == 33


def test_file_ids_unique(db):
    t1 = db.create_table("t1", Schema.of_ints(["a"]))
    t2 = db.create_table("t2", Schema.of_ints(["a"]))
    db.load_table("t3", Schema.of_ints(["a", "b"]), [(1, 2)])
    idx = db.create_index("t3", "b")
    ids = {t1.heap.file_id, t2.heap.file_id,
           db.table("t3").heap.file_id, idx.file_id}
    assert len(ids) == 4


def test_table_column_values(db):
    table = db.load_table("t", Schema.of_ints(["a", "b"]),
                          [(1, 10), (2, 20)])
    assert list(table.column_values("b")) == [10, 20]

"""Heap pages and heap files."""

import numpy as np
import pytest

from repro.errors import PageFullError, StorageError, UnknownPageError
from repro.storage.heap import HeapFile
from repro.storage.page import HeapPage
from repro.storage.types import Column, ColumnType, Schema, TID


def test_page_insert_and_get():
    page = HeapPage(page_id=0, capacity=3)
    assert page.insert((1,)) == 0
    assert page.insert((2,)) == 1
    assert page.get(1) == (2,)
    assert len(page) == 2
    assert not page.is_full


def test_page_full_raises():
    page = HeapPage(page_id=0, capacity=1)
    page.insert((1,))
    assert page.is_full
    with pytest.raises(PageFullError):
        page.insert((2,))


def test_page_bad_slot():
    page = HeapPage(page_id=0, capacity=2)
    page.insert((1,))
    with pytest.raises(StorageError):
        page.get(1)


def test_page_rejects_zero_capacity():
    with pytest.raises(StorageError):
        HeapPage(page_id=0, capacity=0)


@pytest.fixture()
def heap():
    return HeapFile(file_id=0, schema=Schema.of_ints(["a"]),
                    tuples_per_page=4)


def test_heap_append_assigns_sequential_tids(heap):
    tids = [heap.append((i,)) for i in range(10)]
    assert tids[0] == TID(0, 0)
    assert tids[4] == TID(1, 0)
    assert tids[9] == TID(2, 1)
    assert heap.num_pages == 3
    assert heap.row_count == 10


def test_heap_fetch_roundtrip(heap):
    tid = heap.append((42,))
    assert heap.fetch(tid) == (42,)


def test_heap_page_bounds(heap):
    heap.append((1,))
    with pytest.raises(UnknownPageError):
        heap.page(5)


def test_heap_validates_arity(heap):
    with pytest.raises(StorageError):
        heap.append((1, 2))


def test_heap_iter_rows_in_physical_order(heap):
    for i in range(9):
        heap.append((i,))
    rows = list(heap.iter_rows())
    assert [r for _t, r in rows] == [(i,) for i in range(9)]
    assert rows[0][0] == TID(0, 0)
    assert rows[-1][0] == TID(2, 0)


def test_heap_iter_pages_order(heap):
    for i in range(6):
        heap.append((i,))
    assert [p.page_id for p in heap.iter_pages()] == [0, 1]


# -- the columnar image: one per heap, extended from the row watermark -------

_MIXED = Schema([Column("k"), Column("f", ColumnType.FLOAT),
                 Column("tag", ColumnType.CHAR, 4), Column("n")])


def _mixed_row(i):
    return (i, i / 4, f"t{i % 3}", None if i % 5 == 0 else i)


def _fresh(schema, rows, per_page=4):
    heap = HeapFile(file_id=0, schema=schema, tuples_per_page=per_page)
    for row in rows:
        heap.append(row)
    return heap


def _kinds(chunk):
    return [col.dtype.str if isinstance(col, np.ndarray) else "list"
            for col in chunk.columns]


def test_heap_image_of_an_empty_table():
    heap = _fresh(_MIXED, [])
    assert heap.image().to_rows() == [] and len(heap.image()) == 0
    assert heap.image().names == _MIXED.column_names
    assert heap.run_chunk(0, 1).to_rows() == []


def test_heap_image_round_trips_char_and_null_columns_and_a_short_page():
    rows = [_mixed_row(i) for i in range(10)]  # 4 + 4 + 2: short last page
    image = _fresh(_MIXED, rows).image()
    assert image.to_rows() == rows
    assert _kinds(image) == ["<i8", "<f8", "list", "list"]
    assert image.columns[2] == [r[2] for r in rows]
    assert image.columns[3] == [r[3] for r in rows]  # NULLs stay None


@pytest.mark.parametrize("built_at", [0, 1, 3, 4, 7, 8, 10])
def test_heap_image_extends_from_the_watermark_and_equals_a_fresh_build(
        built_at):
    rows = [_mixed_row(i) for i in range(11)]
    heap = _fresh(_MIXED, rows[:built_at])
    old = heap.image()
    held = old[:built_at]  # a batch handed out before the appends
    for row in rows[built_at:]:
        heap.append(row)
    image = heap.image()
    fresh = _fresh(_MIXED, rows).image()
    assert image.to_rows() == fresh.to_rows() == rows
    assert _kinds(image) == _kinds(fresh)
    assert heap.image() is image  # up to date: nothing rebuilt
    assert held.to_rows() == rows[:built_at]
    if built_at:
        # The old rows were copied over as a block, never re-typed.
        assert np.array_equal(image.columns[0][:built_at], old.columns[0])


def test_heap_image_extension_retypes_a_column_only_when_it_must():
    heap = _fresh(Schema.of_ints(["a", "b"]), [(1, 1), (2, 2)])
    assert _kinds(heap.image()) == ["<i8", "<i8"]
    heap.append((3, None))       # b stops being exact
    heap.append((4, 2 ** 70))
    image = heap.image()
    assert _kinds(image) == ["<i8", "list"]
    assert image.to_rows() == [(1, 1), (2, 2), (3, None), (4, 2 ** 70)]
    heap.append((2.5, 5))        # a: int64 then float is mixed, not float
    assert heap.image().columns[0] == [1, 2, 3, 4, 2.5]
    assert heap.image().to_rows() == _fresh(
        heap.schema, heap.image().to_rows()).image().to_rows()


def test_run_chunk_is_a_zero_copy_slice_of_the_image():
    rows = [_mixed_row(i) for i in range(10)]
    heap = _fresh(_MIXED, rows)
    image = heap.image()
    for start, n in [(0, 1), (1, 1), (1, 2), (2, 1), (0, 3)]:
        run = heap.run_chunk(start, n)
        assert run.to_rows() == rows[4 * start:4 * (start + n)]
        for i in (0, 1):
            assert np.shares_memory(run.columns[i], image.columns[i])
            assert np.shares_memory(run.data_column(i), image.columns[i])
        # Object columns are not even sliced until somebody reads them.
        assert run.columns[2] is image.columns[2]
    assert len(heap.run_chunk(2, 1)) == 2  # the short last page

"""Heap files, and pages as arithmetic over them."""

import gc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import heap as heap_module
from repro.storage.chunk import Chunk, CodedColumn
from repro.storage.heap import HeapFile
from repro.storage.types import Column, ColumnType, Schema


def _one_page_heap(capacity):
    """A heap whose first page is the page under test: a page is a range
    of the heap's rows, so they go in through the heap."""
    return HeapFile(file_id=0, schema=Schema.of_ints(["a"]),
                    tuples_per_page=capacity)


def test_page_insert_and_get():
    heap = _one_page_heap(capacity=3)
    assert heap.append((1,)) == 0
    assert heap.append((2,)) == 1
    assert heap.row(1) == (2,)
    # A page that is not full holds only the rows it was given.
    assert heap.num_pages == 1 and len(heap.run_chunk(0, 1)) == 2


def test_page_full_raises():
    heap = _one_page_heap(capacity=1)
    heap.append((1,))
    # A full page takes no more rows: the heap opens the next one.
    assert heap.append((2,)) == 1
    assert heap.num_pages == 2
    assert heap.run_chunk(0, 1).to_rows() == [(1,)]
    assert heap.run_chunk(1, 1).to_rows() == [(2,)]


def test_page_rejects_zero_capacity():
    with pytest.raises(StorageError):
        _one_page_heap(capacity=0)


@pytest.fixture()
def heap():
    return HeapFile(file_id=0, schema=Schema.of_ints(["a"]),
                    tuples_per_page=4)


def test_heap_append_assigns_sequential_tids(heap):
    tids = [heap.append((i,)) for i in range(10)]
    assert tids == list(range(10))
    assert [tid // heap.tuples_per_page for tid in tids] == [0] * 4 + [1] * 4 + [2] * 2
    assert heap.num_pages == 3
    assert heap.row_count == 10


def test_heap_fetch_roundtrip(heap):
    tid = heap.append((42,))
    assert heap.row(tid) == (42,)


def test_heap_validates_arity(heap):
    with pytest.raises(StorageError):
        heap.append((1, 2))


def test_heap_iter_rows_in_physical_order(heap):
    for i in range(9):
        heap.append((i,))
    assert heap.image()[:].to_rows() == [(i,) for i in range(9)]
    assert [heap.run_chunk(p, 1).to_rows() for p in range(heap.num_pages)] \
        == [[(0,), (1,), (2,), (3,)], [(4,), (5,), (6,), (7,)], [(8,)]]


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



# -- a chunk joins the image column by column --------------------------------


@pytest.mark.parametrize("names", [("k", "f", "tag"),
                                   ("k", "f", "tag", "n", "extra"),
                                   ("k", "f", "n", "tag")])
def test_a_chunk_whose_names_are_not_the_schema_stores_nothing(names):
    rows = [_mixed_row(i) for i in range(6)]
    heap = _fresh(_MIXED, rows)
    before = heap.image()
    chunk = Chunk.from_columns(names, [[1, 2]] * len(names))
    with pytest.raises(StorageError):
        heap.extend(chunk)
    assert heap.row_count == 6 and heap.image() is before
    assert heap.image().to_rows() == rows


def test_a_chunk_of_ragged_columns_stores_nothing():
    heap = _fresh(Schema.of_ints(["a", "b"]), [(0, 0)])
    ragged = Chunk.from_columns(("a", "b"), [np.arange(3), np.arange(2)])
    with pytest.raises(StorageError):
        heap.extend(ragged)
    assert heap.image().to_rows() == [(0, 0)]


def test_append_then_a_chunk_then_append_is_the_all_rows_image():
    rows = [_mixed_row(i) for i in range(23)]
    heap = _fresh(_MIXED, rows[:5])             # still pending: folded first
    middle = Chunk.from_rows(_MIXED, rows[5:17])
    assert heap.extend(middle[2:]) == 10        # a selection of a chunk too
    heap.extend(Chunk.from_rows(_MIXED, []))    # nothing to join
    for row in rows[17:]:
        heap.append(row)
    want = rows[:5] + rows[7:]
    fresh = _fresh(_MIXED, want).image()
    image = heap.image()
    assert _kinds(image) == _kinds(fresh) == ["<i8", "<f8", "list", "list"]
    assert image.to_rows() == fresh.to_rows() == want
    assert heap.row_count == len(want) and heap.num_pages == 6


def test_an_array_joins_an_object_column_as_built_in_values():
    heap = _fresh(Schema.of_ints(["a", "b"]), [(1, None), (2, 2 ** 70)])
    ints = np.array([3, 4], dtype=np.int64)
    heap.extend(Chunk.from_columns(("a", "b"), [ints, ints.copy()]))
    heap.extend(Chunk.from_columns(("a", "b"), [
        np.array([5], dtype=np.int32), np.array([6.5])]))
    image = heap.image()
    assert _kinds(image) == ["<i8", "list"]
    assert isinstance(image.columns[1], CodedColumn)
    assert image.columns[1] == [None, 2 ** 70, 3, 4, 6.5]
    assert [type(v) for v in image.columns[1]] == [
        type(None), int, int, int, float]
    assert image.columns[0].tolist() == [1, 2, 3, 4, 5]


def test_an_int64_column_of_a_chunk_is_kept_not_copied():
    heap = HeapFile(file_id=0, schema=Schema.of_ints(["a"]),
                    tuples_per_page=4)
    column = np.arange(10, dtype=np.int64)
    heap.extend(Chunk.from_columns(("a",), [column]))
    assert heap.image().columns[0] is column
    assert heap.row(9) == (9,) and type(heap.row(9)[0]) is int


# -- rows live once, as columns: every read gives back what was appended ------

_WIDE = Schema([Column("k"), Column("f", ColumnType.FLOAT),
                Column("tag", ColumnType.CHAR, 4), Column("n"),
                Column("big", ColumnType.BIGINT), Column("mix")])

_wide_rows = st.tuples(
    st.integers(-1000, 1000),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.none() | st.integers(-5, 5),             # NULLs: an object column
    st.integers(-2 ** 70, 2 ** 70),             # beyond int64, sometimes
    st.integers(0, 9) | st.floats(allow_nan=False, allow_infinity=False),
)

_heap_ops = st.lists(st.one_of(
    st.tuples(st.just("append"), _wide_rows),
    st.tuples(st.just("extend"), st.lists(_wide_rows, max_size=9)),
    st.tuples(st.just("chunk"), st.lists(_wide_rows, max_size=9)),
    st.tuples(st.sampled_from(
        ["image", "get", "all_rows", "row", "whole"])),
), max_size=25)


def _assert_same_rows(got, want):
    """Equal values *and* equal built-in types (no NumPy scalar, no int
    where a float went in)."""
    assert got == want
    assert [[type(v) for v in row] for row in got] == [
        [type(v) for v in row] for row in want]


@settings(max_examples=200, deadline=None)
@given(_heap_ops)
def test_property_any_interleaving_of_appends_and_reads_returns_the_rows(ops):
    per_page = 3
    # Two pages to a block, so blocks fold mid-``extend`` and both kinds
    # of boundary are crossed within a few operations.
    with mock.patch.object(heap_module, "BLOCK_PAGES", 2):
        heap = HeapFile(file_id=0, schema=_WIDE, tuples_per_page=per_page)
        model: list = []
        held: list = []
        for op, *args in ops:
            if op == "append":
                assert heap.append(args[0]) == len(model)
                model.append(args[0])
            elif op == "extend":
                assert heap.extend(iter(args[0])) == len(args[0])
                model.extend(args[0])
            elif op == "chunk":
                chunk = Chunk.from_rows(_WIDE, args[0])
                assert heap.extend(chunk) == len(args[0])
                model.extend(args[0])
            elif op == "image":
                cut = len(model) // 2
                held.append((heap.image()[cut:], model[cut:]))
            elif op == "get":
                _assert_same_rows(
                    [heap.row(i) for i in range(len(model))], model)
            elif op == "all_rows":
                _assert_same_rows(
                    [row for p in range(heap.num_pages)
                     for row in heap.run_chunk(p, 1).to_rows()],
                    model)
            elif op == "row" and model:
                last = len(model) - 1
                _assert_same_rows(
                    [heap.row(0), heap.row(last), heap.row(last // 2)],
                    [model[0], model[last], model[last // 2]])
            elif op == "whole":
                _assert_same_rows(heap.image()[:].to_rows(), model)
            assert heap.row_count == len(model)
            assert heap.num_pages == -(-len(model) // per_page)
        # Chunks handed out before later appends still read their rows.
        for chunk, rows in held:
            _assert_same_rows(chunk.to_rows(), rows)
        _assert_same_rows(heap.image()[:].to_rows(), model)
        assert heap.image().to_rows() == _fresh(
            _WIDE, model, per_page).image().to_rows()


def _reachable_from(root):
    """Every container object reachable from ``root`` through the
    storage layer's own objects (not through classes or modules)."""
    walked = (HeapFile, Chunk, list, tuple, dict,
              types.BuiltinMethodType, types.MethodWrapperType)
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not isinstance(obj, walked):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_a_heap_holds_no_row_tuple_and_a_page_holds_nothing():
    per_page = 7
    rows = [(10 ** 6 + i, i / 3, f"t{i % 5}", None if i % 4 else i)
            for i in range(40 * per_page + 3)]

    def row_tuples(heap):
        return [obj for obj in _reachable_from(heap)
                if type(obj) is tuple and len(obj) == len(_MIXED)
                and type(obj[0]) is int and obj[0] >= 10 ** 6]

    heap = _fresh(_MIXED, rows[:-5], per_page)
    # Appended and not yet read: the rows wait as tuples, once.
    assert len(row_tuples(heap)) == len(rows) - 5
    image = heap.image()
    assert row_tuples(heap) == []
    # Reading through every door leaves nothing behind either ...
    assert heap.image()[:].to_rows() == rows[:-5]
    assert heap.row(3 * per_page + 2) == rows[23]
    assert heap.run_chunk(2, 3).to_rows() == rows[14:35]
    assert heap.image() is image
    assert row_tuples(heap) == []
    # ... and an append waits only until the next read.
    heap.extend(rows[-5:])
    assert len(row_tuples(heap)) == 5
    assert heap.row(40 * per_page + 2) == rows[-1]
    assert row_tuples(heap) == []
    # Nothing per page is reachable from the heap: a page is arithmetic.
    one_page = _fresh(_MIXED, rows[:3], per_page)
    one_page.image()
    assert (heap.num_pages, one_page.num_pages) == (41, 1)
    assert len(_reachable_from(heap)) == len(_reachable_from(one_page))

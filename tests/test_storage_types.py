"""Schemas, columns, TIDs."""

import pytest

from repro.errors import StorageError
from repro.storage.types import Column, ColumnType, Schema


def test_column_sizes():
    assert Column("a", ColumnType.INT).byte_size == 4
    assert Column("a", ColumnType.BIGINT).byte_size == 8
    assert Column("a", ColumnType.FLOAT).byte_size == 8
    assert Column("a", ColumnType.DATE).byte_size == 4
    assert Column("a", ColumnType.CHAR, 25).byte_size == 25


def test_char_requires_length():
    with pytest.raises(StorageError):
        Column("a", ColumnType.CHAR).byte_size


def test_schema_of_ints_and_payload():
    schema = Schema.of_ints(["a", "b", "c"])
    assert schema.payload_bytes() == 12
    assert schema.tuple_size(tuple_header=24) == 36


def test_payload_is_summed_once_and_only_when_a_layout_asks():
    schema = Schema([Column("k"), Column("tag", ColumnType.CHAR, 25)])
    assert schema.payload_bytes() == schema.payload_bytes() == 29
    # A derived schema (a string literal in a select list) has a CHAR of
    # no declared length: it is a fine schema until someone lays it out.
    derived = Schema([Column("lit", ColumnType.CHAR), Column("n")])
    assert derived.column_names == ("lit", "n")
    with pytest.raises(StorageError):
        derived.payload_bytes()


def test_micro_tuple_is_64_bytes():
    schema = Schema.of_ints([f"c{i}" for i in range(1, 11)])
    assert schema.tuple_size(tuple_header=24) == 64


def test_schema_rejects_empty_and_duplicates():
    with pytest.raises(StorageError):
        Schema([])
    with pytest.raises(StorageError):
        Schema([Column("x"), Column("x")])


def test_index_of_and_has_column():
    schema = Schema.of_ints(["a", "b"])
    assert schema.index_of("b") == 1
    assert schema.has_column("a")
    assert not schema.has_column("z")
    with pytest.raises(StorageError):
        schema.index_of("z")


def test_validate_row_arity():
    schema = Schema.of_ints(["a", "b"])
    schema.validate_row((1, 2))
    with pytest.raises(StorageError):
        schema.validate_row((1, 2, 3))


def test_schema_equality_and_hash():
    s1 = Schema.of_ints(["a", "b"])
    s2 = Schema.of_ints(["a", "b"])
    assert s1 == s2
    assert hash(s1) == hash(s2)

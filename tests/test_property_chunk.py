"""Property-based tests of the Chunk row/column round-trip contract.

The contract (see :mod:`repro.storage.chunk`):
``Chunk.from_rows(names, rows).to_rows() == rows`` for any well-typed
rows — including CHAR strings, NULLs, booleans, floats and integers
beyond the ``int64`` range — and every derived view (columnar rebuild,
``take``, slicing, ``concat``) exposes exactly the rows plain-Python
indexing would.  Values must come back as built-in Python types, never
NumPy scalars.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.chunk import Chunk, _exact_array, typed_column

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# One strategy per column "shape": typed-array candidates (pure int,
# pure float) and object-fallback ones (CHAR, NULL-bearing, mixed,
# big-int, bool — bools must *not* be coerced into int64 columns).
_COLUMN_VALUE = st.one_of(
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.none(),
    st.booleans(),
)

_COLUMN_STRATEGIES = st.sampled_from([
    st.integers(-2**62, 2**62),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.one_of(st.none(), st.integers(-100, 100)),
    st.booleans(),
    _COLUMN_VALUE,
])


@st.composite
def row_batches(draw):
    """A (names, rows) pair with a per-column value strategy."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(0, 50))
    col_strats = [draw(_COLUMN_STRATEGIES) for _ in range(width)]
    rows = [
        tuple(draw(s) for s in col_strats)
        for _ in range(height)
    ]
    names = tuple(f"c{i}" for i in range(width))
    return names, rows


def _assert_plain_python(rows):
    for row in rows:
        for v in row:
            assert v is None or type(v) in (int, float, str, bool), type(v)


@SETTINGS
@given(batch=row_batches())
def test_from_rows_to_rows_round_trips(batch):
    names, rows = batch
    chunk = Chunk.from_rows(names, rows)
    assert len(chunk) == len(rows)
    assert chunk.to_rows() == rows

    # The same rows reconstructed purely from the column payloads — no
    # cached row list to fall back on — must round-trip bitwise too.
    rebuilt = Chunk.from_columns(names, chunk.columns)
    assert rebuilt.to_rows() == rows
    _assert_plain_python(rebuilt.to_rows())


@SETTINGS
@given(batch=row_batches(), data=st.data())
def test_take_and_slice_match_row_indexing(batch, data):
    names, rows = batch
    chunk = Chunk.from_columns(names, Chunk.from_rows(names, rows).columns)

    indices = data.draw(st.lists(
        st.integers(0, max(0, len(rows) - 1)),
        max_size=len(rows), unique=True,
    ).map(sorted)) if rows else []
    taken = chunk.take(indices)
    assert taken.to_rows() == [rows[i] for i in indices]

    lo = data.draw(st.integers(0, len(rows)))
    hi = data.draw(st.integers(lo, len(rows)))
    assert chunk[lo:hi].to_rows() == rows[lo:hi]

    # A contiguous slice is a lazy ``range`` selection: narrowing it again
    # (slice, take in any order, array indices, filter) composes offsets.
    window, part = chunk[lo:hi], rows[lo:hi]
    a = data.draw(st.integers(0, len(part)))
    b = data.draw(st.integers(a, len(part)))
    assert window[a:b].to_rows() == part[a:b]
    assert window[::2].to_rows() == part[::2]
    picks = data.draw(st.lists(st.integers(0, max(0, len(part) - 1)),
                               max_size=8)) if part else []
    assert window.take(picks).to_rows() == [part[i] for i in picks]
    assert window.take(np.array(picks, dtype=np.intp)).to_rows() == \
        [part[i] for i in picks]
    odd = window.filter(np.arange(len(part)) % 2 == 1)
    assert (odd.to_rows() if odd is not None else []) == part[1::2]
    _assert_plain_python(window.to_rows())

    # A second narrowing composes selection vectors.
    if indices:
        sub = data.draw(st.lists(
            st.integers(0, len(indices) - 1),
            max_size=len(indices), unique=True,
        ).map(sorted))
        assert taken.take(sub).to_rows() == [rows[indices[j]] for j in sub]


@SETTINGS
@given(batch=row_batches(), data=st.data())
def test_filter_and_concat_match_python(batch, data):
    names, rows = batch
    chunk = Chunk.from_columns(names, Chunk.from_rows(names, rows).columns)

    bools = [data.draw(st.booleans()) for _ in rows]
    kept = chunk.filter(np.array(bools, dtype=bool))
    expected = [r for r, b in zip(rows, bools, strict=False) if b]
    assert (kept.to_rows() if kept is not None else []) == expected

    if rows:
        cut = data.draw(st.integers(0, len(rows)))
        left = Chunk.from_rows(names, rows[:cut])
        right = Chunk.from_rows(names, rows[cut:])
        assert Chunk.concat([left, right]).to_rows() == rows


def _exact_by_all(values):
    """The typing rule spelled out value by value: one int64 or float64
    array when every value is an ``int`` in range (``bool`` is not an
    ``int`` here) or every value is a ``float``; else no array."""
    if values and all(type(v) is int for v in values):
        if all(-2 ** 63 <= v < 2 ** 63 for v in values):
            return np.array(values, dtype=np.int64)
        return None
    if values and all(type(v) is float for v in values):
        return np.array(values, dtype=np.float64)
    return None


@pytest.mark.parametrize("values", [
    [], [0], [1, 2, 3], [2 ** 63 - 1, -2 ** 63], [1, 2 ** 63], [-2 ** 63 - 1],
    [True, False], [1, True], [True, 1], [0.5, 1.5], [1, 2.5], [2.5, 1],
    [None], [1, None], [None, 1], [2.5, None], ["a", "b"], [1, "a"],
    ["a", 1], [float("nan"), float("inf")], [np.int64(3), 4],
], ids=repr)
def test_exact_typing_is_the_value_by_value_rule(values):
    want = _exact_by_all(values)
    got = _exact_array(values)
    if want is None:
        assert got is None
        column = typed_column(values)
        assert type(column) is list and column == values
    else:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

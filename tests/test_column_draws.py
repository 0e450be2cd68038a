"""The micro table's columnar generator against the row loop it replays.

:func:`~repro.workloads.micro.randrange_column` replays
``[rng.randrange(n) for _ in range(count)]`` from the generator's raw
MT19937 words; these tests hold it to that loop — values *and* the
``Random`` state left behind — after any prefix of other draws, on the
interpreter that runs them (the CI matrix runs every supported one).
The micro table built from those columns is then held to one built by
the literal loop through ``load_table``: image, pages, pool size, index
lookups and statistics.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.database import Database
from repro.errors import WorkloadError
from repro.storage.heap import BLOCK_PAGES
from repro.workloads.micro import (
    MICRO_COLUMNS,
    VALUE_DOMAIN,
    build_micro_table,
    micro_schema,
    randrange_column,
)

#: 1, 2, 3, 100000, 2**32 - 1, and 2**k - 1, 2**k, 2**k + 1 up to 2**32.
_BOUNDS = sorted({n for k in range(33) for n in (2 ** k - 1, 2 ** k,
                                                  2 ** k + 1)
                  if 0 < n <= 2 ** 32} | {3, VALUE_DOMAIN})

#: MT19937 refills its 624-word state every 624 words: counts on either
#: side of one and two refills (the table test below crosses a block).
_COUNTS = [0, 1, 2, 623, 624, 625, 1247, 1248, 1249, 3000]


def _prefix_step(rng, op):
    kind, arg = op
    if kind == "random":
        rng.random()
    elif kind == "bits":
        rng.getrandbits(arg)
    elif kind == "randrange":
        rng.randrange(arg)
    else:
        rng.gauss(0.0, 1.0)  # leaves a cached second value behind


_prefix = st.lists(st.one_of(
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("bits"), st.integers(1, 100)),
    st.tuples(st.just("randrange"), st.integers(1, 2 ** 40)),
    st.tuples(st.just("gauss"), st.none()),
), max_size=12)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 64), n=st.sampled_from(_BOUNDS),
       count=st.sampled_from(_COUNTS), prefix=_prefix)
def test_replay_equals_the_randrange_loop_and_leaves_the_same_state(
        seed, n, count, prefix):
    loop, replay = random.Random(seed), random.Random(seed)
    for op in prefix:
        _prefix_step(loop, op)
        _prefix_step(replay, op)
    want = [loop.randrange(n) for _ in range(count)]
    got = randrange_column(replay, n, count)
    assert got.dtype == np.int64 and got.shape == (count,)
    assert got.tolist() == want
    assert replay.getstate() == loop.getstate()
    # The next draw of either kind agrees too.
    assert replay.random() == loop.random()


def test_replay_of_consecutive_columns_equals_one_loop():
    loop, replay = random.Random(7), random.Random(7)
    want = [loop.randrange(VALUE_DOMAIN) for _ in range(5_000)]
    got = np.concatenate([randrange_column(replay, VALUE_DOMAIN, c)
                          for c in (1, 623, 2_000, 0, 2_376)])
    assert got.tolist() == want
    assert replay.getstate() == loop.getstate()


class _Subclass(random.Random):
    pass


@pytest.mark.parametrize("kind", [_Subclass, random.SystemRandom])
def test_only_a_plain_random_is_replayed(kind):
    with pytest.raises(WorkloadError):
        randrange_column(kind(1), 10, 5)


@pytest.mark.parametrize("n", [0, -1, 2 ** 32 + 1, 2 ** 64])
def test_a_bound_outside_one_to_two_to_the_32_raises(n):
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(WorkloadError):
        randrange_column(rng, n, 5)
    assert rng.getstate() == state


def test_a_negative_count_raises():
    with pytest.raises(WorkloadError):
        randrange_column(random.Random(3), 10, -1)


# -- the micro table: columns in, the same table out ---------------------------


def _row_loop_db(num_tuples, seed):
    """The micro table as the row loop builds it, through ``load_table``."""
    db = Database()
    rng = random.Random(seed)
    rows = [(i,) + tuple(rng.randrange(VALUE_DOMAIN)
                         for _ in range(len(MICRO_COLUMNS) - 1))
            for i in range(num_tuples)]
    db.load_table("micro", micro_schema(), rows)
    db.create_index("micro", "c1")
    db.create_index("micro", "c2")
    return db


def _micro_db(num_tuples, seed):
    db = Database()
    build_micro_table(db, num_tuples, seed=seed)
    return db


@pytest.mark.parametrize("num_tuples", [1, 119, 120, 121,
                                        BLOCK_PAGES * 120 + 1])
def test_the_columnar_micro_table_is_the_row_loop_table(num_tuples):
    new, ref = _micro_db(num_tuples, 42), _row_loop_db(num_tuples, 42)
    got, want = new.table("micro"), ref.table("micro")
    assert want.heap.tuples_per_page == 120
    for a, b in zip(got.heap.image().columns, want.heap.image().columns):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)
    assert got.num_pages == want.num_pages
    assert got.row_count == want.row_count == num_tuples
    assert (new.runtime.buffer.capacity_pages
            == ref.runtime.buffer.capacity_pages)
    last = num_tuples - 1
    for column in ("c1", "c2"):
        for key in (0, last, want.heap.row(last // 2)[1], VALUE_DOMAIN - 1):
            lookups = [sorted(db.table("micro").index_on(column).lookup(
                db.context(), key)) for db in (new, ref)]
            assert lookups[0] == lookups[1]
    assert got.heap.row(last) == want.heap.row(last)
    assert all(type(v) is int for v in got.heap.row(last))
    stats = [db.analyze().table_stats("micro") for db in (new, ref)]
    assert stats[0] == stats[1]

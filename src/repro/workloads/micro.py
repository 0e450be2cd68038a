"""The micro-benchmark of Section VI-C.

A table of 10 integer columns: ``c1`` is the primary-key order number,
``c2``..``c10`` are uniform random values from ``[0, 10^5)``.  With the
24-byte tuple header the tuple is 64 bytes — the paper's 120 tuples per
8KB page.  A non-clustered index on ``c2`` drives the selectivity sweeps:

    SELECT * FROM relation WHERE c2 >= 0 AND c2 < X [ORDER BY c2 ASC]

The paper's table has 400M tuples (25GB, 3M pages); generators here take
an explicit row count and keep every geometric ratio identical, since the
evaluation sweeps are expressed in selectivity, not bytes.

The table is generated and loaded as columns.  Its values are the ones
``random.Random(seed).randrange(10^5)`` gives, drawn row after row —
:func:`randrange_column` replays those draws as int64 arrays from the
generator's raw MT19937 words, a block of
:data:`~repro.storage.heap.BLOCK_PAGES` pages at a time — and the heap
takes the ten columns as one :class:`~repro.storage.chunk.Chunk`.
"""

from __future__ import annotations

import random

import numpy as np

from repro.database import Database
from repro.errors import WorkloadError
from repro.exec.expressions import Between, KeyRange, Predicate
from repro.storage.chunk import Chunk
from repro.storage.heap import BLOCK_PAGES
from repro.storage.table import Table
from repro.storage.types import Schema

#: Value domain of the non-key columns (the paper's ``0 - 10^5``).
VALUE_DOMAIN = 100_000

MICRO_COLUMNS = tuple(f"c{i}" for i in range(1, 11))


def micro_schema() -> Schema:
    """The 10-integer-column schema."""
    return Schema.of_ints(MICRO_COLUMNS)


def randrange_column(rng: random.Random, n: int, count: int) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(count)]`` as an int64 array,
    leaving ``rng`` in the state that loop leaves it in.

    CPython's ``randrange(n)`` tries ``getrandbits(k)``, ``k =
    n.bit_length()``, until a try is below ``n``.  For ``k <= 32`` a try
    is one 32-bit MT19937 word shifted right by ``32 - k``; for ``n =
    2**32`` it is two words, the first one the value and the second one's
    top bit a 33rd bit that must be 0.  The replay draws the words from
    ``rng`` itself, many at a time (:func:`_words`), and filters them the
    same way.  A round draws as many tries as values are still missing,
    so it never draws past the loop's last word.
    """
    if type(rng) is not random.Random:
        raise WorkloadError(
            f"randrange_column replays random.Random, not {type(rng).__name__}"
        )
    if not 0 < n <= 2 ** 32:
        raise WorkloadError(f"randrange_column needs 0 < n <= 2**32, not {n}")
    if count < 0:
        raise WorkloadError(f"count must be >= 0, not {count}")
    shift = 32 - n.bit_length()
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        need = count - filled
        if shift >= 0:
            tries = _words(rng, need) >> shift
            kept = tries[tries < n]
        else:
            pairs = _words(rng, 2 * need).reshape(need, 2)
            kept = pairs[pairs[:, 1] < 2 ** 31, 0]
        out[filled:filled + len(kept)] = kept
        filled += len(kept)
    return out


def _words(rng: random.Random, count: int) -> np.ndarray:
    """``rng``'s next ``count`` 32-bit MT19937 words, in draw order.

    ``getrandbits(32 * count)`` draws them one after another into one
    integer, the first in its lowest 32 bits, and drops no bit of any.
    """
    return np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"),
        dtype="<u4")


def build_micro_table(db: Database, num_tuples: int,
                      name: str = "micro", seed: int = 42,
                      index_columns: tuple[str, ...] = ("c1", "c2"),
                      ) -> Table:
    """Create and load the micro-benchmark table, with its indexes.

    Row ``i`` holds ``c1 = i`` and the next nine ``randrange(10^5)``
    draws of ``random.Random(seed)``, in column order.  ``c1`` gets an
    index standing in for the primary key; ``c2`` gets the non-clustered
    secondary index every experiment probes.
    """
    if num_tuples <= 0:
        raise WorkloadError("num_tuples must be positive")
    rng = random.Random(seed)
    schema = micro_schema()
    width = len(MICRO_COLUMNS) - 1
    columns = [np.arange(num_tuples, dtype=np.int64)] + [
        np.empty(num_tuples, dtype=np.int64) for _ in range(width)]
    block = BLOCK_PAGES * db.config.tuples_per_page(
        schema.tuple_size(db.config.tuple_header))
    for start in range(0, num_tuples, block):
        stop = min(start + block, num_tuples)
        draws = randrange_column(rng, VALUE_DOMAIN, (stop - start) * width)
        for column, values in zip(columns[1:],
                                  draws.reshape(-1, width).T):
            column[start:stop] = values
    table = db.load_table(name, schema,
                          Chunk.from_columns(MICRO_COLUMNS, columns))
    for column in index_columns:
        db.create_index(name, column)
    return table


def selectivity_range(selectivity: float) -> KeyRange:
    """The ``c2`` key range selecting ≈ ``selectivity`` of the rows.

    ``selectivity`` is a fraction in [0, 1]; the uniform domain makes
    ``c2 < selectivity × DOMAIN`` select that fraction in expectation.
    ``selectivity=0`` yields the empty range (the sweep's 0.0 point).
    """
    if not 0.0 <= selectivity <= 1.0:
        raise WorkloadError(f"selectivity {selectivity} outside [0, 1]")
    hi = round(selectivity * VALUE_DOMAIN)
    return KeyRange(lo=0, hi=hi, lo_inclusive=True, hi_inclusive=False)


def selectivity_predicate(selectivity: float) -> Predicate:
    """The full predicate form of :func:`selectivity_range`."""
    rng = selectivity_range(selectivity)
    return Between("c2", rng.lo, rng.hi, rng.lo_inclusive, rng.hi_inclusive)

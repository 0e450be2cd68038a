"""Volcano-style physical operators, one columnar execution protocol.

Every operator exposes its output :class:`~repro.storage.types.Schema` and
implements exactly one execution method, :meth:`Operator.batches`: yield
*batches* — :class:`~repro.storage.chunk.Chunk` objects (named,
array-backed columns plus an optional selection vector) — charging
simulated costs through the :class:`~repro.context.ExecutionContext` as it
goes.  Predicates are compiled to boolean masks over whole columns
(:meth:`~repro.exec.expressions.Predicate.bind_mask`), filters narrow
chunks by selection vector instead of copying rows, and per-tuple Python
overhead is amortized over whole heap pages or morphing-region runs.
Generators keep the pipelined execution model whose preservation is one of
Smooth Scan's selling points over the blocking Sort Scan: a parent pulls
one batch at a time and may stop early.

:meth:`Operator.rows` is not a second protocol but a final view over the
first — it flattens ``batches()`` into row tuples for callers that want
them, and no operator overrides it.  Operators that build their output
row by row (an aggregate's groups) cut it with :func:`chunked`.

Batch contract:

* a batch is a non-empty :class:`Chunk` — the one batch type; producers
  never yield empty batches — an empty producer yields *zero* batches,
  never an empty one — and the ``rows()`` view asserts it;
* iterating a batch yields built-in Python scalars; ``Chunk.to_rows()``
  round-trips exactly, including NULLs and CHAR values;
* a row-native producer (an index probe, a Mode 0 fetch, a join) collects
  *positions* — a TID is a row's position in the heap's columnar image
  (:meth:`~repro.storage.heap.HeapFile.image`) — and yields
  ``image.take(positions)``; a join collects (left, right) position
  pairs and yields the two sides' ``take`` side by side;
* a batch stays its producer's: ``Chunk.to_rows()`` returns the chunk's
  cached list, ``Chunk.from_rows`` shares the list it was given, and a
  scan's chunk is a slice of, or a selection vector over, the image (its
  ``columns`` *are* the table's, whatever its length) — so consumers
  only read batches, and read columns through ``data_column`` /
  ``array`` / ``column_values``, which apply the selection.  The one
  consumer that hands rows to user code, the cursor, rowifies the part
  of a batch a fetch hands out: what the caller gets is a new list;
* batch sizes are bounded but not fixed — natural producer units (a heap
  page, an extent run, a morphing region) are preferred over re-chunking,
  and per-tuple producers flush every :data:`DEFAULT_BATCH_SIZE` rows;
* charges key off page, run and tuple counts, which a chunk carries, so
  the columnar representation is invisible to the cost model: every
  operator charges what the paper's tuple-at-a-time pipeline charges
  (``tests/golden_row_path.json`` freezes that pipeline's numbers).
  Batching does reorder page accesses *between* subtrees — children are
  drained in large chunks instead of row-by-row interleaving — and the
  simulated disk (head position) and buffer pool (LRU locality)
  legitimately reward that, exactly as real hardware rewards vectorized
  execution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import islice
from typing import Iterable, Iterator, Sequence, final

from repro.context import ExecutionContext
from repro.storage.chunk import Chunk
from repro.storage.types import Row, Schema

#: Rows per batch flushed by per-tuple producers (see :func:`chunked`).
DEFAULT_BATCH_SIZE = 1024

__all__ = [
    "Chunk",
    "DEFAULT_BATCH_SIZE",
    "Operator",
    "chunked",
    "explain",
]


class Operator(ABC):
    """Base class of all physical operators."""

    #: Output schema; set by each concrete operator's ``__init__``.
    schema: Schema

    @abstractmethod
    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Yield output batches (non-empty), charging costs on ``ctx``."""

    @final
    def rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        """Row view over :meth:`batches`; operators never override it."""
        for batch in self.batches(ctx):
            if not len(batch):
                raise AssertionError(
                    f"{type(self).__name__}.batches() yielded an empty "
                    "batch, violating the batch contract"
                )
            yield from batch

    def children(self) -> tuple["Operator", ...]:
        """Child operators, for plan display; leaves return ()."""
        return ()

    def name(self) -> str:
        """Short display name used by :func:`explain`."""
        return type(self).__name__

    def collect(self, ctx: ExecutionContext) -> list[Row]:
        """Run to completion and materialize all output rows."""
        out: list[Row] = []
        for batch in self.batches(ctx):
            out.extend(batch.to_rows())
        return out


def chunked(names: Sequence[str], rows: Iterable[Row]) -> Iterator[Chunk]:
    """Cut a per-tuple row stream into :data:`DEFAULT_BATCH_SIZE` chunks.

    Pulls exactly one batch's worth of rows before each yield, so a parent
    that stops early (``Limit``) has paid for whole flushes and no more.
    """
    it = iter(rows)
    while True:
        block = list(islice(it, DEFAULT_BATCH_SIZE))
        if not block:
            return
        yield Chunk.from_rows(names, block)


def explain(op: Operator, depth: int = 0) -> str:
    """Render an operator tree as an indented single-string plan."""
    lines = ["  " * depth + f"-> {op.name()}"]
    for child in op.children():
        lines.append(explain(child, depth + 1))
    return "\n".join(lines)

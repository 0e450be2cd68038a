"""The Sort operator.

A blocking in-memory sort that falls back to a simulated external merge
sort (write runs + read back, both sequential) when the input exceeds
``work_mem``.  This is the "posterior sorting" cost that Full Scan and
Sort Scan pay under an ``ORDER BY`` in Figure 5a while Smooth Scan, which
already emits in key order, does not.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as _np

from repro.context import ExecutionContext
from repro.errors import PlanningError
from repro.exec.iterator import DEFAULT_BATCH_SIZE, Chunk, Operator


class Sort(Operator):
    """Sort child rows by one or more ``(column, ascending)`` keys."""

    def __init__(self, child: Operator,
                 keys: Sequence[tuple[str, bool]] | Sequence[str]):
        if not keys:
            raise PlanningError("Sort needs at least one key")
        self.child = child
        self.schema = child.schema
        self.keys: list[tuple[str, bool]] = [
            (k, True) if isinstance(k, str) else (k[0], bool(k[1]))
            for k in keys
        ]
        for column, _asc in self.keys:
            self.schema.index_of(column)  # validate eagerly

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def name(self) -> str:
        order = ", ".join(
            f"{c}{'' if asc else ' DESC'}" for c, asc in self.keys
        )
        return f"Sort({order})"

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Concatenate the input, permute it once, hand it out in slices."""
        batches = list(self.child.batches(ctx))
        if not batches:
            return
        merged = Chunk.concat(batches)
        n = len(merged)
        if n > 1:
            ctx.charge_compare(n * max(1, (n - 1).bit_length()))
            self._charge_spill(ctx, n)
            merged = merged.take(self._permutation(merged))
        for start in range(0, n, DEFAULT_BATCH_SIZE):
            yield merged[start:start + DEFAULT_BATCH_SIZE]

    def _permutation(self, chunk: Chunk):
        """The stable multi-key sort permutation of ``chunk``'s rows.

        Keys apply last-first, each pass a stable sort of the permutation
        so far: ``argsort`` for an ascending key over an array column, a
        stable list sort of the key's values otherwise (descending keys
        included — ``reverse`` keeps equal keys in order).  NULL sorts
        first ascending and last descending, as in sqlite3; an array
        holds none.
        """
        perm = _np.arange(len(chunk))
        for column, ascending in reversed(self.keys):
            pos = self.schema.index_of(column)
            col = chunk.array(pos)
            if ascending and col is not None:
                perm = perm[_np.argsort(col[perm], kind="stable")]
            else:
                values = chunk.column_values(pos)
                order = perm.tolist()
                nulls = []
                if None in values:
                    nulls = [i for i in order if values[i] is None]
                    order = [i for i in order if values[i] is not None]
                order = sorted(order, key=values.__getitem__,
                               reverse=not ascending)
                perm = _np.asarray(nulls + order if ascending
                                   else order + nulls, dtype=_np.intp)
        return perm

    def _charge_spill(self, ctx: ExecutionContext, n_rows: int) -> None:
        """Charge external-sort I/O when the input exceeds work_mem."""
        tuple_size = self.schema.tuple_size(ctx.config.tuple_header)
        data_pages = math.ceil(
            n_rows * tuple_size / ctx.config.usable_page_bytes
        )
        if data_pages > ctx.config.work_mem_pages:
            ctx.disk.spill(data_pages)

"""NumPy answers the engine's results are checked against.

The micro oracle is built from one unfiltered scan of ``(c1, c2)`` and then
answers every range predicate by itself — sorting and prefix sums over those
two columns — so a result is checked without going through the engine's
predicates, index or morphing.  A range result is checked by row count and an
order-independent checksum ``(sum c1, sum c2, sum c1*c2)``.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np


def _prefix(values: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(values, dtype=np.int64)))


class MicroOracle:
    def __init__(self, rows: list) -> None:
        table = np.array(rows, dtype=np.int64).reshape(-1, 2)
        c1, c2 = table[:, 0], table[:, 1]
        order = np.argsort(c2, kind="stable")
        self.row_count = len(table)
        self._c2_sorted = c2[order]
        self._sums = (_prefix(c1[order]), _prefix(c2[order]),
                      _prefix(c1[order] * c2[order]))
        self._c2_of = dict(zip(c1.tolist(), c2.tolist(), strict=True))

    def _span(self, lo: int, hi: int) -> tuple[int, int]:
        a, b = np.searchsorted(self._c2_sorted, (lo, hi), side="left")
        return int(a), int(b)

    def count(self, lo: int, hi: int) -> int:
        a, b = self._span(lo, hi)
        return b - a

    def check_range(self, rows: list, lo: int, hi: int) -> str | None:
        """None when ``rows`` is exactly ``lo <= c2 < hi``, else why not."""
        a, b = self._span(lo, hi)
        if len(rows) != b - a:
            return f"[{lo},{hi}): {len(rows)} rows, expected {b - a}"
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                           count=2 * len(rows))
        c1, c2 = flat[0::2], flat[1::2]
        got = (int(c1.sum()), int(c2.sum()), int((c1 * c2).sum()))
        want = tuple(int(s[b] - s[a]) for s in self._sums)
        if got != want:
            return f"[{lo},{hi}): checksum {got}, expected {want}"
        return None

    def check_top(self, rows: list, lo: int, hi: int, limit: int) -> str | None:
        """Check ``... ORDER BY c2 LIMIT limit``: the c2 values are the
        ``limit`` smallest of the range, in order, and every row exists."""
        a, b = self._span(lo, hi)
        want = self._c2_sorted[a:min(b, a + limit)].tolist()
        if [row[1] for row in rows] != want:
            return f"[{lo},{hi}) limit {limit}: wrong c2 sequence"
        c2_of = self._c2_of
        if any(c2_of.get(row[0]) != row[1] for row in rows):
            return f"[{lo},{hi}) limit {limit}: a row is not in the table"
        return None


def rows_close(a: list, b: list, rel: float = 1e-9) -> bool:
    """Row lists equal, floats to ``rel`` relative."""
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b, strict=True):
        if len(row_a) != len(row_b):
            return False
        for x, y in zip(row_a, row_b, strict=True):
            if isinstance(x, float) or isinstance(y, float):
                if not math.isclose(x, y, rel_tol=rel):
                    return False
            elif x != y:
                return False
    return True


def q6_revenue(lineitem_rows: list, date) -> float:
    """TPC-H Q6 recomputed from ``(l_shipdate, l_discount, l_quantity,
    l_extendedprice)`` rows."""
    table = np.array(lineitem_rows, dtype=np.float64)
    shipdate, discount, quantity, price = table.T
    keep = ((shipdate >= date(1994, 1, 1)) & (shipdate < date(1995, 1, 1))
            & (discount >= 0.05) & (discount <= 0.07) & (quantity < 24))
    return float((price[keep] * discount[keep]).sum())

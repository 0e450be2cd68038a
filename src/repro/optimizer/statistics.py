"""Column statistics: histograms, distinct counts, and staleness.

The optimizer's whole world view lives here.  Statistics are collected by
``analyze`` (optionally on a sample), stored in a catalog, and — crucially
for this paper — can be *stale*: collected before further loads, from a
sample, or simply absent.  Every way real systems end up with a wrong
estimate is reproducible through this module, which is what Figures 1
and 11 need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as _np

from repro.errors import StatisticsError
from repro.storage.table import Table

_DEFAULT_BUCKETS = 100


def distinct_count(values: _np.ndarray) -> int:
    """How many distinct values a non-empty array holds, counted as
    ``len(np.unique(values))`` counts them — every NaN is one value and
    ``-0.0 == 0.0`` — by one sort and a count of value changes."""
    ordered = _np.sort(values)
    nan = ordered.dtype.kind == "f" and bool(_np.isnan(ordered[-1]))
    if nan:
        # NaNs sort last, after +inf.
        ordered = ordered[:_np.searchsorted(ordered, _np.nan)]
    changes = int(_np.count_nonzero(ordered[1:] != ordered[:-1]))
    return changes + (len(ordered) > 0) + nan


@dataclass
class Histogram:
    """Equi-width histogram over a numeric column."""

    lo: float
    hi: float
    counts: list[int]

    @property
    def total(self) -> int:
        """Rows summed over all buckets."""
        return sum(self.counts)

    def range_fraction(self, lo: float | None, hi: float | None,
                       lo_inclusive: bool = True,
                       hi_inclusive: bool = False) -> float:
        """Estimated fraction of rows with values in ``[lo, hi]``.

        Uniformity is assumed *within* buckets — the textbook (and
        PostgreSQL) interpolation that breaks down under skew.
        """
        total = self.total
        if total == 0:
            return 0.0
        lo_v = self.lo if lo is None else max(float(lo), self.lo)
        hi_v = self.hi if hi is None else min(float(hi), self.hi)
        if hi_v < lo_v:
            return 0.0
        if self.hi == self.lo:
            return 1.0
        counts = self.counts
        width = (self.hi - self.lo) / len(counts)
        if width <= 0:
            return 1.0
        # Only buckets around [lo_v, hi_v] can overlap it (one spare on
        # each side for rounding); the rest would add nothing, so the
        # float sum is the one a walk over every bucket gives.
        first = max(0, int((lo_v - self.lo) / width) - 1)
        last = min(len(counts), int((hi_v - self.lo) / width) + 2)
        covered = 0.0
        for i in range(first, last):
            b_lo = self.lo + i * width
            b_hi = b_lo + width
            overlap = min(hi_v, b_hi) - max(lo_v, b_lo)
            if overlap > 0:
                covered += counts[i] * (overlap / width)
        return min(1.0, covered / total)


@dataclass
class ColumnStats:
    """Statistics of one column at collection time."""

    column: str
    row_count: int
    min_value: object
    max_value: object
    ndv: int
    histogram: Histogram | None = None

    def equality_fraction(self) -> float:
        """Estimated fraction for ``col = const``: ``1 / ndv``."""
        return 1.0 / self.ndv if self.ndv > 0 else 0.0


@dataclass
class TableStats:
    """Statistics of one table at collection time."""

    table: str
    row_count: int
    num_pages: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)


class StatisticsCatalog:
    """Holds (possibly stale) statistics for the optimizer.

    Staleness injection:

    * collect, then load more data — the catalog keeps the old counts;
    * collect from a sample (``analyze(..., sample_rate=...)``);
    * never analyze — estimation falls back to PostgreSQL-style defaults.
    """

    def __init__(self, seed: int = 0):
        self._stats: dict[str, TableStats] = {}
        self._rng = random.Random(seed)

    def analyze(self, table: Table, columns: list[str] | None = None,
                sample_rate: float = 1.0,
                buckets: int = _DEFAULT_BUCKETS,
                prefix_fraction: float | None = None) -> TableStats:
        """Collect statistics for ``table``.

        ``sample_rate`` draws a Bernoulli sample (unbiased, just coarser).
        ``prefix_fraction`` instead reads only the *first* fraction of the
        heap — statistics as they would have been collected before the
        latest data ingest.  On chronologically loaded tables this leaves
        recent value ranges entirely outside the histograms, the classic
        stale-statistics failure the paper's motivation describes.
        """
        if not 0.0 < sample_rate <= 1.0:
            raise StatisticsError("sample_rate must be in (0, 1]")
        if prefix_fraction is not None and not 0.0 < prefix_fraction <= 1.0:
            raise StatisticsError("prefix_fraction must be in (0, 1]")
        names = columns if columns is not None else list(
            table.schema.column_names
        )
        seen_rows = table.row_count
        if prefix_fraction is not None:
            seen_rows = max(1, int(table.row_count * prefix_fraction))
        stats = TableStats(
            table=table.name,
            row_count=seen_rows,
            num_pages=max(1, int(
                table.num_pages
                * (prefix_fraction if prefix_fraction is not None else 1.0)
            )),
        )
        for name in names:
            values = table.column_values(name)[:seen_rows]
            if sample_rate < 1.0:
                # One draw per row per column, in row order: the RNG
                # stream the stale-statistics figures were recorded with.
                draws = [self._rng.random() < sample_rate for _ in values]
                values = (values[_np.array(draws, dtype=bool)]
                          if isinstance(values, _np.ndarray)
                          else [v for v, keep in zip(values, draws) if keep])
            stats.columns[name] = self._column_stats(name, values,
                                                     seen_rows, buckets)
        self._stats[table.name] = stats
        return stats

    def _column_stats(self, name: str, values, row_count: int,
                      buckets: int) -> ColumnStats:
        """Statistics of one column's (sampled) values, array or list.

        Min, max, ndv and the histogram describe the non-NULL values (an
        array holds none); ``row_count`` counts every row.  An array
        column is bucketed with the list path's own float64 expression,
        element-wise, so both give identical histograms.  An array's
        ndv comes from a sort (:func:`distinct_count`), a list's from a
        set.
        """
        if not isinstance(values, _np.ndarray):
            values = [v for v in values if v is not None]
        if not len(values):
            return ColumnStats(column=name, row_count=row_count,
                               min_value=None, max_value=None, ndv=0)
        counts = None
        if isinstance(values, _np.ndarray):
            lo, hi = values.min().item(), values.max().item()
            ndv = distinct_count(values)
            span = float(hi) - float(lo)
            if span <= 0:
                counts = [len(values)] + [0] * (buckets - 1)
            else:
                slots = ((values.astype(_np.float64) - float(lo))
                         / span * buckets).astype(_np.int64)
                counts = _np.bincount(_np.minimum(slots, buckets - 1),
                                      minlength=buckets).tolist()
        else:
            lo, hi = min(values), max(values)
            ndv = len(set(values))
            if all(isinstance(v, (int, float)) for v in values):
                counts = [0] * buckets
                span = float(hi) - float(lo)
                for v in values:
                    if span <= 0:
                        counts[0] += 1
                    else:
                        b = min(buckets - 1,
                                int((float(v) - float(lo)) / span * buckets))
                        counts[b] += 1
        histogram = None if counts is None else Histogram(
            lo=float(lo), hi=float(hi), counts=counts)
        return ColumnStats(column=name, row_count=row_count,
                           min_value=lo, max_value=hi, ndv=ndv,
                           histogram=histogram)

    # -- lookup ------------------------------------------------------------

    def has_table(self, table_name: str) -> bool:
        """True if any statistics exist for the table."""
        return table_name in self._stats

    def table_stats(self, table_name: str) -> TableStats:
        """Stats for a table; raises StatisticsError when never analyzed."""
        try:
            return self._stats[table_name]
        except KeyError:
            raise StatisticsError(
                f"no statistics collected for table {table_name!r}"
            ) from None

    def column_stats(self, table_name: str,
                     column: str) -> ColumnStats | None:
        """Stats for one column, or None when unavailable."""
        if table_name not in self._stats:
            return None
        return self._stats[table_name].columns.get(column)

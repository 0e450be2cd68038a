"""The rows a Smooth Scan qualifies, found once: positions first, runs as cuts.

Which rows satisfy a scan's key range and residual does not depend on the
morphing — only *when* each of them is met does.  So the scan keeps one
ascending array of qualifying positions in the heap's columnar image
(``page * tuples_per_page + slot``) and a morphing region's run of unseen
pages is a ``searchsorted`` cut into it: the run's selection vector, its
``produced`` count and its ``pages_with_results``, with no slice of the
image masked per run (the shape of Goodrich et al.'s data-oblivious
compaction: compact first, then address the compacted array).

Producing the positions is the scan's one pass over data, and *when* to
take it is decided from what the scan can observe, not from a knob.  The
key range's entry count is free (:meth:`~repro.index.btree.BTreeIndex.
range_positions`, uncharged), so the price of the pass is known up front:
sorting the range's own index TIDs (cost follows the result) or
masking the whole key column, whichever is cheaper.  Until the scan has
spent that much on the fixed cost of masking regions one at a time (rent:
the rows themselves are masked once either way, and a table holds only so
many), a cut masks its own rows; the cut that would cross the price takes
the pass instead (buy), and every later one is two binary searches.  A
16-row probe sorts 16 integers at its first region; a ``LIMIT`` over a
wide range never masks more than it fetched.  The residual is evaluated
over the key range's candidates only.

Nothing here charges: a payload read is free in the cost model, and the
scan's charges are keyed by page and tuple counts, which a cut reports
exactly as masking the run would.  The positions live as long as the
scan that produced them.
"""

from __future__ import annotations

import numpy as _np

from repro.storage.chunk import mask_all, mask_nonzero

#: Rent-or-buy prices, in rows of the image masked (~1.9 ns each on the
#: 240K-row micro table): buying out of the index costs about four a
#: TID sorted (~8 ns), and a cut that masks its own rows pays a
#: fixed cost (~4.5 us) of about two thousand that a bought one does not.
_SORT_ROWS = 4
_RENT_ROWS = 2048


class QualifyingPositions:
    """The image positions one scan qualifies, ascending; a run is a cut.

    Args:
        heap: the scanned table's heap (its image is read, never charged).
        index: the B+-tree driving the scan.
        rng: the scan's key range.
        in_range: ``rng`` compiled to a chunk mask
            (:meth:`~repro.exec.expressions.KeyRange.predicate`).
        residual: the residual compiled to a chunk mask, or ``None``.
    """

    def __init__(self, heap, index, rng, in_range, residual):
        self.image = heap.image()
        self.rows = len(self.image)
        self.per_page = heap.tuples_per_page
        self.index = index
        self.rng = rng
        self.in_range = in_range
        self.residual = residual
        start, end = index.range_positions(
            rng.lo, rng.hi, rng.lo_inclusive, rng.hi_inclusive)
        by_index = (end - start) * _SORT_ROWS
        #: Buy out of the index (else with one mask over the table) ...
        self._sorts = by_index < self.rows
        #: ... once this many cuts have masked their own rows.
        self._rents = max(0, -(-min(by_index, self.rows) // _RENT_ROWS) - 1)
        #: ``(positions, page ranks)`` of the whole table, once bought.
        self._bought: tuple | None = None

    def _narrow(self, sel, mask_of):
        """``sel`` (a ``range`` or ascending positions) without the rows
        ``mask_of`` fails; ``sel`` itself when every row passes."""
        mask = mask_of(self.image.take(sel))
        if mask is None or mask_all(mask):
            return sel
        hits = mask_nonzero(mask)
        if type(sel) is range:
            return _np.asarray(hits, dtype=_np.intp) + sel.start
        return sel[hits]

    def _positions(self, span: range | None):
        """The qualifying positions within ``span`` of the image, by
        masking it — or, for ``None``, in the table, by sorting the key
        range's index entries: an array, or ``span`` when all of it does."""
        if span is None:
            rng = self.rng
            # A copy: the view is the tree's own, read-only array.
            sel = _np.sort(self.index.peek_range_tids(
                rng.lo, rng.hi, rng.lo_inclusive, rng.hi_inclusive))
        else:
            sel = self._narrow(span, self.in_range)
        if self.residual is not None and len(sel):
            sel = self._narrow(sel, self.residual)
        return sel

    def _ranks(self, q):
        """``ranks[i]``: distinct pages among ``q[:i + 1]``, minus one."""
        pages = q // self.per_page
        ranks = _np.zeros(len(q), dtype=_np.intp)
        _np.cumsum(pages[1:] != pages[:-1], out=ranks[1:])
        return ranks

    def cut(self, lo: int, hi: int):
        """``(selection, pages with results)`` of the page run holding rows
        ``[lo, hi)``; the selection is a ``range`` when every row passes."""
        n_pages = -(-(hi - lo) // self.per_page)
        if self._bought is not None:
            q, ranks = self._bought
        elif self._rents:
            self._rents -= 1
            q, ranks = self._positions(range(lo, hi)), None
        else:
            q = self._positions(None if self._sorts else range(self.rows))
            ranks = None if type(q) is range else self._ranks(q)
            self._bought = q, ranks
        if type(q) is range:
            return range(lo, hi), n_pages
        a, b = int(q.searchsorted(lo)), int(q.searchsorted(hi))
        if b - a == hi - lo:
            return range(lo, hi), n_pages
        if b - a <= 1 or n_pages == 1:
            return q[a:b], min(b - a, 1)
        if ranks is None:  # rented: the cut is all of ``q``
            ranks = self._ranks(q)
        return q[a:b], int(ranks[b - 1] - ranks[a]) + 1

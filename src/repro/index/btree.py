"""A non-clustered B+-tree secondary index.

Entries are ``(key, TID)`` pairs kept in strict ``(key, TID)`` order — the
ordering Section IV-A notes lets a system avoid the Tuple ID cache.  A TID
is the row's position in the heap's columnar image, an ``int``
(``page * tuples_per_page + slot``): it sorts by physical placement, and
its page is ``tid // tuples_per_page``.  The tree is physically modeled:
entries are grouped into leaf pages of ``fanout`` entries, internal levels
are laid out above them, and scans charge real page reads through the
buffer pool, so index I/O shows up in the same accounting as heap I/O
(Eq. (11)'s ``height``, ``card`` and ``#leaves_res`` terms all emerge from
execution rather than being assumed).

The implementation is two parallel sequences: the sorted keys (a list, so
a probe is one ``bisect``) and a read-only int64 array of TIDs, which bulk
readers hand out as views — a selection vector over the heap image as it
stands.  Nothing is kept per entry for the cyclic collector to re-walk.
Building sorts once; point inserts keep order via bisection.  This is a
deliberate simplification of node splitting — the paper only ever reads its
indexes, and layout math (fanout, height, leaf count) follows Eqs. (5)-(7)
exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

import numpy as _np

from repro.index import layout


def _read_only(tids):
    """``tids``, flagged so a write through any view of it raises."""
    tids.flags.writeable = False
    return tids


class BTreeIndex:
    """Array-backed B+-tree over one column of a table.

    Page-id layout within the index file: leaves occupy ids
    ``[0, #leaves)``, then each internal level follows, root last.
    """

    def __init__(self, name: str, file_id: int, key_size: int,
                 page_size: int = 8192):
        self.name = name
        self.file_id = file_id
        self.key_size = key_size
        self.page_size = page_size
        self.fanout = layout.fanout(page_size, key_size)
        self._keys: list = []
        #: Entry ``i``'s TID, parallel to ``_keys``.
        self._tids = _read_only(_np.empty(0, dtype=_np.int64))
        #: ``(level_sizes, height)``: worked out at the first question
        #: after a build, dropped by :meth:`insert`.
        self._geometry: tuple[list[int], int] | None = None

    # -- construction -----------------------------------------------------

    def load_column(self, column) -> None:
        """Replace the index contents with one entry per heap row.

        ``column`` is the key column of a heap image (an array or an
        object list): row ``i`` has TID ``i``.  TIDs ascend, so a stable
        sort on the key alone leaves the entries in strict ``(key, TID)``
        order.  A NULL key gets no entry: NULL compares with nothing, so
        it matches no range.
        """
        if isinstance(column, _np.ndarray):
            order = _np.argsort(column, kind="stable")
            self._keys = column[order].tolist()
        else:
            order = sorted([i for i, key in enumerate(column)
                            if key is not None], key=column.__getitem__)
            self._keys = [column[i] for i in order]
        self._tids = _read_only(_np.asarray(order, dtype=_np.int64))
        self._geometry = None

    def insert(self, key: object, tid: int) -> None:
        """Insert one entry, preserving strict ``(key, TID)`` order; a
        NULL key is not indexed (see :meth:`load_column`)."""
        if key is None:
            return
        lo = bisect_left(self._keys, key)
        hi = bisect_right(self._keys, key)
        pos = lo + int(self._tids[lo:hi].searchsorted(tid))
        self._keys.insert(pos, key)
        self._tids = _read_only(_np.insert(self._tids, pos, tid))
        self._geometry = None

    # -- geometry ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def _shape(self) -> tuple[list[int], int]:
        """Level sizes and height of the tree as it stands, worked out once."""
        if self._geometry is None:
            leaves = max(1, layout.num_leaves(len(self._keys), self.fanout))
            self._geometry = (layout.level_sizes(leaves, self.fanout),
                              layout.height(leaves, self.fanout))
        return self._geometry

    @property
    def num_leaves(self) -> int:
        """Leaf page count (``#leaves``, Eq. (6))."""
        return self._shape()[0][0]

    @property
    def height(self) -> int:
        """Tree height (``height``, Eq. (7))."""
        return self._shape()[1]

    @property
    def level_sizes(self) -> list[int]:
        """Node counts per level, leaves first (the tree's own list)."""
        return self._shape()[0]

    @property
    def num_pages(self) -> int:
        """Total index pages (buffer-pool protocol)."""
        return sum(self.level_sizes)

    def _path_page_ids(self, leaf: int) -> list[int]:
        """Page ids on the root-to-leaf path, root first, leaf last."""
        path = []
        offset, node = 0, leaf
        for level, size in enumerate(self.level_sizes):
            if level:
                node //= self.fanout
            path.append(offset + min(node, size - 1))
            offset += size
        path.reverse()
        return path

    # -- reading ----------------------------------------------------------

    def range_positions(self, lo: object | None, hi: object | None,
                        lo_inclusive: bool = True,
                        hi_inclusive: bool = False) -> tuple[int, int]:
        """Entry-position interval ``[start, end)`` for a key range."""
        keys = self._keys
        start = 0 if lo is None else (
            bisect_left if lo_inclusive else bisect_right)(keys, lo)
        end = len(keys) if hi is None else (
            bisect_right if hi_inclusive else bisect_left)(keys, hi)
        return start, max(start, end)

    def _leaf_spans(self, ctx, lo: object | None, hi: object | None,
                    lo_inclusive: bool,
                    hi_inclusive: bool) -> Iterator[tuple[int, int]]:
        """Yield a key range's entry positions ``(start, end)`` leaf by leaf.

        The one walk under every scan: charges the descent, and each
        further leaf's page read only when the consumer asks for that
        leaf.  Per-entry CPU is the caller's to charge.
        """
        start, end = self.range_positions(lo, hi, lo_inclusive, hi_inclusive)
        if start >= end:
            if self._keys:
                # An empty range still pays the descent that discovers it.
                self._charge_descent(ctx, min(start, len(self._keys) - 1))
            return
        self._charge_descent(ctx, start)
        fanout = self.fanout
        pos = start
        while pos < end:
            leaf_end = min(end, (pos // fanout + 1) * fanout)
            yield pos, leaf_end
            pos = leaf_end
            if pos < end:
                ctx.buffer.get_page(self, pos // fanout, stream_hint=True)

    def scan_batches(self, ctx, lo: object | None = None,
                     hi: object | None = None,
                     lo_inclusive: bool = True,
                     hi_inclusive: bool = False,
                     ) -> Iterator[tuple[list, list[int]]]:
        """Yield ``(keys, tids)`` list pairs over a key range, per leaf.

        Charges one page read per level for the initial root-to-leaf
        descent, then one (stream-sequential) leaf page read each time the
        scan crosses into a new leaf, plus per-entry CPU: Eq. (11)'s
        index-side terms.
        """
        for pos, leaf_end in self._leaf_spans(ctx, lo, hi, lo_inclusive,
                                              hi_inclusive):
            ctx.charge_index_entry(leaf_end - pos)
            yield self._keys[pos:leaf_end], self._tids[pos:leaf_end].tolist()

    def scan_tids(self, ctx, lo: object | None = None,
                  hi: object | None = None,
                  lo_inclusive: bool = True,
                  hi_inclusive: bool = False):
        """The TIDs of a key range, in key order.

        Charge-identical to :meth:`scan_batches` — the same descent,
        leaf-read and per-entry CPU costs — but the result is one
        read-only int64 view of the tree's array, which bulk consumers
        (SortScan's bitmap phase) can sort and group without touching a
        Python object per entry.
        """
        for pos, leaf_end in self._leaf_spans(ctx, lo, hi, lo_inclusive,
                                              hi_inclusive):
            ctx.charge_index_entry(leaf_end - pos)
        start, end = self.range_positions(lo, hi, lo_inclusive, hi_inclusive)
        return self._tids[start:end]

    def scan_leaf_tids(self, ctx, lo: object | None = None,
                       hi: object | None = None,
                       lo_inclusive: bool = True,
                       hi_inclusive: bool = False):
        """Yield a key range's TIDs, one read-only view per leaf.

        For consumers that never look at keys.  Descent and leaf reads
        are charged here, lazily as the consumer advances leaf by leaf;
        the per-entry CPU is the consumer's to charge — a leaf at a time
        (Smooth Scan's eager unordered path), or entry by entry inside a
        longer per-tuple charge sequence (the index scan).
        """
        for pos, leaf_end in self._leaf_spans(ctx, lo, hi, lo_inclusive,
                                              hi_inclusive):
            yield self._tids[pos:leaf_end]

    def _charge_descent(self, ctx, pos: int) -> None:
        """Charge the root-to-leaf page reads for the entry at ``pos``."""
        for pid in self._path_page_ids(pos // self.fanout):
            ctx.buffer.get_page(self, pid)

    def lookup(self, ctx, key: object) -> Iterator[int]:
        """Yield the TIDs of all entries equal to ``key`` (point probe).

        A NULL key equals no entry: it yields nothing and charges nothing
        (it is not the unbounded range a ``None`` bound means to
        :meth:`scan_batches`)."""
        if key is None:
            return
        for pos, leaf_end in self._leaf_spans(ctx, key, key, True, True):
            for tid in self._tids[pos:leaf_end].tolist():
                ctx.charge_index_entry()
                yield tid

    def peek_range_tids(self, lo: object | None, hi: object | None,
                        lo_inclusive: bool = True,
                        hi_inclusive: bool = False):
        """The TIDs of a key range, in key order; no charge.

        What a charged scan of the range will hand out, for a caller that
        works out which rows qualify ahead of the scan that pays to find
        them (a read-only view of the tree's array).
        """
        start, end = self.range_positions(lo, hi, lo_inclusive, hi_inclusive)
        return self._tids[start:end]

    def root_key_separators(self, partitions: int) -> list:
        """Approximate key-range boundaries as seen from the root page.

        Used by the Result Cache to partition its store by key range
        (Section IV-A reads the index root to pick partition boundaries).
        Returns up to ``partitions - 1`` separator keys.
        """
        if not self._keys or partitions <= 1:
            return []
        step = max(1, len(self._keys) // partitions)
        seps = []
        for i in range(step, len(self._keys), step):
            key = self._keys[i]
            if not seps or key > seps[-1]:
                seps.append(key)
            if len(seps) >= partitions - 1:
                break
        return seps

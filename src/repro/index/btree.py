"""A non-clustered B+-tree secondary index.

Entries are ``(key, TID)`` pairs kept in strict ``(key, TID)`` order — the
ordering Section IV-A notes lets a system avoid the Tuple ID cache.  The
tree is physically modeled: entries are grouped into leaf pages of
``fanout`` entries, internal levels are laid out above them, and scans
charge real page reads through the buffer pool, so index I/O shows up in
the same accounting as heap I/O (Eq. (11)'s ``height``, ``card`` and
``#leaves_res`` terms all emerge from execution rather than being assumed).

The implementation is array-backed: parallel sorted lists of keys and TIDs.
Bulk loading sorts once; point inserts keep order via bisection.  This is a
deliberate simplification of node splitting — the paper only ever reads its
indexes, and layout math (fanout, height, leaf count) follows Eqs. (5)-(7)
exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

import numpy as _np

from repro.errors import BTreeError
from repro.index import layout
from repro.storage.types import TID

#: Bits reserved for the slot in a packed TID code (page << SHIFT | slot).
#: Heap pages hold far fewer than 2**20 tuples, so the packing is exact
#: and code order equals ``(page_id, slot)`` tuple order.
TID_SHIFT = 20
#: The slot bits of a packed TID code.
TID_SLOT_MASK = (1 << TID_SHIFT) - 1


class IndexPage:
    """Placeholder object cached by the buffer pool for index pages."""

    __slots__ = ("page_id",)

    def __init__(self, page_id: int):
        self.page_id = page_id


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
        self._tids: list[TID] = []
        self._codes = None  # packed int64 TID codes, built lazily

    # -- construction -----------------------------------------------------

    def bulk_load(self, pairs: Iterable[tuple[object, TID]]) -> None:
        """Replace the index contents with ``pairs`` (sorted internally)."""
        entries = sorted(pairs, key=lambda p: (p[0], p[1]))
        self._keys = [k for k, _ in entries]
        self._tids = [t for _, t in entries]
        self._codes = None

    def insert(self, key: object, tid: TID) -> None:
        """Insert one entry, preserving strict ``(key, TID)`` order."""
        lo = bisect_left(self._keys, key)
        hi = bisect_right(self._keys, key)
        pos = lo + bisect_left(self._tids[lo:hi], tid)
        self._keys.insert(pos, key)
        self._tids.insert(pos, tid)
        self._codes = None

    # -- geometry ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def num_leaves(self) -> int:
        """Leaf page count (``#leaves``, Eq. (6))."""
        return max(1, layout.num_leaves(len(self._keys), self.fanout))

    @property
    def height(self) -> int:
        """Tree height (``height``, Eq. (7))."""
        return layout.height(self.num_leaves, self.fanout)

    @property
    def level_sizes(self) -> list[int]:
        """Node counts per level, leaves first."""
        return layout.level_sizes(self.num_leaves, self.fanout)

    @property
    def num_pages(self) -> int:
        """Total index pages (buffer-pool protocol)."""
        return sum(self.level_sizes)

    def page(self, page_id: int) -> IndexPage:
        """Return the placeholder page object (buffer-pool protocol)."""
        if not 0 <= page_id < self.num_pages:
            raise BTreeError(
                f"index page {page_id} outside file of {self.num_pages}"
            )
        return IndexPage(page_id)  # type: ignore[return-value]

    def leaf_of_position(self, pos: int) -> int:
        """Leaf page id containing entry number ``pos``."""
        return pos // self.fanout

    def _path_page_ids(self, leaf: int) -> list[int]:
        """Page ids on the root-to-leaf path, root first, leaf last."""
        sizes = self.level_sizes
        offsets = [0]
        for s in sizes[:-1]:
            offsets.append(offsets[-1] + s)
        path = []
        node = leaf
        for level, offset in enumerate(offsets):
            if level == 0:
                path.append(offset + min(leaf, sizes[0] - 1))
            else:
                node = node // self.fanout
                path.append(offset + min(node, sizes[level] - 1))
        return list(reversed(path))

    # -- reading ----------------------------------------------------------

    def position_of(self, key: object, inclusive: bool = True) -> int:
        """First entry position with key ``>= key`` (or ``> key``)."""
        if inclusive:
            return bisect_left(self._keys, key)
        return bisect_right(self._keys, key)

    def end_position(self, key: object, inclusive: bool = False) -> int:
        """One past the last entry position with key ``< key`` (or ``<=``)."""
        if inclusive:
            return bisect_right(self._keys, key)
        return bisect_left(self._keys, key)

    def range_positions(self, lo: object | None, hi: object | None,
                        lo_inclusive: bool = True,
                        hi_inclusive: bool = False) -> tuple[int, int]:
        """Entry-position interval ``[start, end)`` for a key range."""
        start = 0 if lo is None else self.position_of(lo, lo_inclusive)
        end = (
            len(self._keys) if hi is None
            else self.end_position(hi, hi_inclusive)
        )
        return start, max(start, end)

    def entry_at(self, pos: int) -> tuple[object, TID]:
        """The ``(key, TID)`` entry at position ``pos``."""
        return self._keys[pos], self._tids[pos]

    def scan(self, ctx, lo: object | None = None, hi: object | None = None,
             lo_inclusive: bool = True,
             hi_inclusive: bool = False) -> Iterator[tuple[object, TID]]:
        """Yield ``(key, TID)`` over a key range, charging index I/O.

        Charges one page read per level for the initial root-to-leaf
        descent, then one (stream-sequential) leaf page read each time the
        scan crosses into a new leaf, plus per-entry CPU.  This reproduces
        Eq. (11)'s index-side terms.
        """
        start, end = self.range_positions(lo, hi, lo_inclusive, hi_inclusive)
        if start >= end:
            if self._keys:
                # An empty range still pays the descent that discovers it.
                self._charge_descent(ctx, min(start, len(self._keys) - 1))
            return
        self._charge_descent(ctx, start)
        current_leaf = self.leaf_of_position(start)
        for pos in range(start, end):
            leaf = self.leaf_of_position(pos)
            if leaf != current_leaf:
                ctx.buffer.get_page(self, leaf, stream_hint=True)
                current_leaf = leaf
            ctx.charge_index_entry()
            yield self._keys[pos], self._tids[pos]

    def _leaf_spans(self, ctx, lo: object | None, hi: object | None,
                    lo_inclusive: bool,
                    hi_inclusive: bool) -> Iterator[tuple[int, int]]:
        """Yield a key range's entry positions ``(start, end)`` leaf by leaf.

        The one walk under every batch scan below: charges the descent,
        and each further leaf's page read only when the consumer asks for
        that leaf.  Per-entry CPU is the caller's to charge.
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
                     ) -> Iterator[tuple[list, list[TID]]]:
        """Yield ``(keys, tids)`` list pairs over a key range, per leaf.

        The batch counterpart of :meth:`scan`: the same descent, leaf-read
        and per-entry CPU costs are charged, but entries are handed back
        one leaf page at a time as parallel key/TID slices, so consumers
        pay no per-entry generator resumption.
        """
        keys, tids = self._keys, self._tids
        for pos, leaf_end in self._leaf_spans(ctx, lo, hi, lo_inclusive,
                                              hi_inclusive):
            ctx.charge_index_entry(leaf_end - pos)
            yield keys[pos:leaf_end], tids[pos:leaf_end]

    def scan_codes(self, ctx, lo: object | None = None,
                   hi: object | None = None,
                   lo_inclusive: bool = True,
                   hi_inclusive: bool = False):
        """Packed TID codes over a key range.

        Charge-identical to :meth:`scan_batches` — the same descent,
        leaf-read and per-entry CPU costs — but the result is one int64
        array view of ``page_id << TID_SHIFT | slot`` codes, which bulk
        consumers (SortScan's bitmap phase) can sort and group without
        touching a Python object per entry.
        """
        for pos, leaf_end in self._leaf_spans(ctx, lo, hi, lo_inclusive,
                                              hi_inclusive):
            ctx.charge_index_entry(leaf_end - pos)
        start, end = self.range_positions(lo, hi, lo_inclusive, hi_inclusive)
        return self._code_array()[start:end]

    def scan_leaf_codes(self, ctx, lo: object | None = None,
                        hi: object | None = None,
                        lo_inclusive: bool = True,
                        hi_inclusive: bool = False):
        """Yield per-leaf packed TID code slices over a key range.

        For consumers that never look at keys.  Descent and leaf reads
        are charged here, lazily as the consumer advances leaf by leaf;
        the per-entry CPU is the consumer's to charge — a leaf at a time
        (Smooth Scan's eager unordered path), or entry by entry inside a
        longer per-tuple charge sequence (the index scan).
        """
        codes = self._code_array()
        for pos, leaf_end in self._leaf_spans(ctx, lo, hi, lo_inclusive,
                                              hi_inclusive):
            yield codes[pos:leaf_end]

    def _code_array(self):
        """The full packed-code array, built lazily and cached."""
        codes = self._codes
        if codes is None:
            codes = _np.fromiter(
                ((t.page_id << TID_SHIFT) | t.slot for t in self._tids),
                dtype=_np.int64, count=len(self._tids),
            )
            self._codes = codes
        return codes

    def _charge_descent(self, ctx, pos: int) -> None:
        """Charge the root-to-leaf page reads for the entry at ``pos``."""
        for pid in self._path_page_ids(self.leaf_of_position(pos)):
            ctx.buffer.get_page(self, pid)

    def lookup(self, ctx, key: object) -> Iterator[TID]:
        """Yield the TIDs of all entries equal to ``key`` (point probe)."""
        for _key, tid in self.scan(ctx, lo=key, hi=key, hi_inclusive=True):
            yield tid

    def min_key(self) -> object:
        """Smallest key; raises BTreeError when empty."""
        if not self._keys:
            raise BTreeError("index is empty")
        return self._keys[0]

    def max_key(self) -> object:
        """Largest key; raises BTreeError when empty."""
        if not self._keys:
            raise BTreeError("index is empty")
        return self._keys[-1]

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

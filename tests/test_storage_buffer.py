"""Buffer pool LRU semantics, hit/miss charging, and cold runs."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError, UnknownPageError
from repro.index.btree import BTreeIndex
from repro.storage.buffer import BufferPool
from repro.storage.disk import BUFFER_HIT, SimClock, SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.types import Schema


@pytest.fixture()
def setup():
    disk = SimulatedDisk(clock=SimClock())
    pool = BufferPool(disk=disk, capacity_pages=4)
    heap = HeapFile(file_id=0, schema=Schema.of_ints(["a"]),
                    tuples_per_page=2)
    for i in range(40):
        heap.append((i,))
    return disk, pool, heap


def test_miss_then_hit(setup):
    disk, pool, heap = setup
    pool.get_page(heap, 3)
    assert pool.stats.misses == 1
    pool.get_page(heap, 3)
    assert pool.stats.hits == 1
    assert disk.stats.pages_read == 1  # second access served from memory


def test_hit_charges_only_cpu(setup):
    disk, pool, heap = setup
    pool.get_page(heap, 0)
    io_before = disk.clock.io_ms
    pool.get_page(heap, 0)
    assert disk.clock.io_ms == io_before
    assert disk.clock.cpu_ms > 0


def test_lru_eviction(setup):
    disk, pool, heap = setup
    for pid in range(5):  # capacity 4 -> page 0 evicted
        pool.get_page(heap, pid)
    assert not pool.contains(heap, 0)
    assert pool.contains(heap, 4)
    pool.get_page(heap, 0)
    assert pool.stats.misses == 6


def test_lru_touch_refreshes(setup):
    disk, pool, heap = setup
    for pid in range(4):
        pool.get_page(heap, pid)
    pool.get_page(heap, 0)     # refresh page 0
    pool.get_page(heap, 9)     # evicts page 1, not 0
    assert pool.contains(heap, 0)
    assert not pool.contains(heap, 1)


def test_get_run_batches_misses(setup):
    disk, pool, heap = setup
    assert pool.get_run(heap, 0, 4) == range(0, 4)
    assert disk.stats.requests == 1
    assert disk.stats.pages_read == 4


def test_get_run_skips_resident_pages(setup):
    disk, pool, heap = setup
    pool.get_page(heap, 1)
    disk.reset()
    pool.get_run(heap, 0, 3)
    # Page 1 was resident: only pages 0 and 2 hit the disk.
    assert disk.stats.pages_read == 2


def test_get_run_clips_at_end_of_file(setup):
    disk, pool, heap = setup
    assert pool.get_run(heap, 18, 10) == range(18, 20)
    assert pool.get_run(heap, 20, 3) == range(20, 20)
    assert disk.stats.pages_read == 2


def test_get_run_empty(setup):
    disk, pool, heap = setup
    assert pool.get_run(heap, 0, 0) == range(0, 0)
    assert (len(pool), disk.stats.requests, disk.clock.cpu_ms) == (0, 0, 0.0)


def test_reset_evicts_everything(setup):
    disk, pool, heap = setup
    pool.get_page(heap, 0)
    pool.reset()
    assert len(pool) == 0
    assert pool.stats.misses == 0
    pool.get_page(heap, 0)
    assert pool.stats.misses == 1


def test_capacity_must_be_positive():
    disk = SimulatedDisk(clock=SimClock())
    with pytest.raises(StorageError):
        BufferPool(disk=disk, capacity_pages=0)


def test_hit_rate(setup):
    _disk, pool, heap = setup
    pool.get_page(heap, 0)
    pool.get_page(heap, 0)
    pool.get_page(heap, 0)
    assert pool.stats.hit_rate == pytest.approx(2 / 3)


def test_the_pool_holds_keys_only(setup):
    _disk, pool, heap = setup
    assert pool.get_page(heap, 5) is None
    pool.get_run(heap, 0, 2)
    assert pool.touch_pages(heap, [1, 7]) is None
    assert (pool.stats.hits, pool.stats.misses) == (1, 4)
    assert list(pool._pages.items()) == [
        ((0, 5), None), ((0, 0), None), ((0, 1), None), ((0, 7), None)]


@pytest.mark.parametrize("request_page", [
    lambda pool, heap, pid: pool.get_page(heap, pid),
    lambda pool, heap, pid: pool.get_page(heap, pid, stream_hint=True),
    lambda pool, heap, pid: pool.touch_pages(heap, [0, pid]),
], ids=["get_page", "stream_hint", "touch_pages"])
@pytest.mark.parametrize("page_id", [-1, 20, 99])
def test_a_page_outside_the_file_raises_and_reads_nothing(
        setup, request_page, page_id):
    disk, pool, heap = setup
    with pytest.raises(UnknownPageError, match=f"page {page_id} outside"):
        request_page(pool, heap, page_id)
    assert not pool.contains(heap, page_id)
    assert disk.stats.pages_read == len(pool)  # page 0, if it was touched


def test_a_run_clips_at_the_end_but_raises_before_the_start(setup):
    disk, pool, heap = setup
    with pytest.raises(UnknownPageError, match="page -1 outside"):
        pool.get_run(heap, -1, 3)
    assert (len(pool), disk.stats.requests) == (0, 0)


def test_the_range_check_is_against_the_file_as_it_stands(setup):
    _disk, pool, heap = setup
    with pytest.raises(UnknownPageError):
        pool.get_page(heap, 20)
    heap.append((40,))
    pool.get_page(heap, 20)
    assert pool.contains(heap, 20) and heap.num_pages == 21


def _failing_on(calls, method):
    """A disk method that raises ``StorageError`` on its ``calls``-th use."""
    seen = []

    def read(*args, **kwargs):
        seen.append(args)
        if len(seen) == calls:
            raise StorageError("injected read fault")
        return method(*args, **kwargs)
    return read


@pytest.mark.parametrize("capacity, failing, unread", [
    (2, 1, range(0, 10)),   # page 3 evicted mid-run: one span, it fails
    (4, 1, range(0, 3)),    # the span before page 3 fails
    (4, 2, range(4, 10)),   # the span after page 3 fails
    (64, 2, range(4, 10)),
])
def test_a_run_whose_read_raises_leaves_no_page_of_it_resident(
        setup, capacity, failing, unread):
    """``get_run`` admits a missing span before reading it (strict LRU
    eviction at admission); a span whose read raises is taken back."""
    disk, pool, heap = setup
    pool.capacity_pages = capacity
    pool.get_page(heap, 3)
    disk.read_run = _failing_on(failing, disk.read_run)
    with pytest.raises(StorageError, match="injected"):
        pool.get_run(heap, 0, 10)
    assert not any(pool.contains(heap, pid) for pid in unread)
    assert len(pool) <= capacity


# -- POOL_GOLDEN: the pool's whole transition sequence, frozen --------------
#
# A seeded script of requests over one heap and one B-tree file, run at
# three capacities.  For each: the exact argument sequence of the disk's
# ``read_page`` / ``read_run``, the clock's counts of each kind per script
# step, the hit/miss counters and the final LRU key order.  Recorded when
# the pool still cached page objects (the counts per step at the commit
# before the clock counted events, from its charge calls); what it holds
# must not change what it charges.

_HEAP_PAGES = 40  # 79 rows, 2 to a page: the last page is short
_INDEX_ENTRIES = 100  # fanout 5 at 48-byte pages: 20 leaves, 25 pages


def _pool_files():
    heap = HeapFile(file_id=0, schema=Schema.of_ints(["a"]),
                    tuples_per_page=2)
    heap.extend((i,) for i in range(2 * _HEAP_PAGES - 1))
    index = BTreeIndex("i", 1, key_size=8, page_size=48)
    # Entry ``i`` at TID ``i``: at 2 rows a page, page ``i // 2``.
    index.load_column([i % 37 for i in range(_INDEX_ENTRIES)])
    assert (heap.num_pages, index.num_pages) == (_HEAP_PAGES, 25)
    return heap, index


def _pool_script(seed=2015, steps=300):
    """``(op, file, args)`` requests: single pages with and without the
    stream hint, runs (some across the end of the file, some longer than
    the pool), and ``touch_pages`` lists."""
    rng = random.Random(seed)
    script = []
    for _ in range(steps):
        file = rng.choice(("heap", "index"))
        pages = _HEAP_PAGES if file == "heap" else 25
        op = rng.choice(("page", "hint", "run", "run", "touch"))
        if op == "run":
            start = rng.choice((rng.randrange(pages),
                                pages - 1 - rng.randrange(4)))
            script.append((op, file, (start, rng.randrange(0, 12))))
        elif op == "touch":
            script.append((op, file, ([rng.randrange(pages)
                                       for _ in range(rng.randrange(1, 9))],)))
        else:
            hot = rng.randrange(6)  # a hot set, so capacity matters
            script.append((op, file, (rng.choice((hot, rng.randrange(pages))),)))
    return script


def _run_pool_script(capacity, observe_charges):
    """One capacity's record of :func:`_pool_script`."""
    observe, digest = observe_charges
    clock = SimClock()
    disk = SimulatedDisk(clock=clock)
    pool = BufferPool(disk=disk, capacity_pages=capacity)
    files = dict(zip(("heap", "index"), _pool_files(), strict=True))
    reads = []
    read_page, read_run = disk.read_page, disk.read_run
    disk.read_page = lambda f, p, stream_hint=False: (
        reads.append(("page", f, p, stream_hint)),
        read_page(f, p, stream_hint=stream_hint))[1]
    disk.read_run = lambda f, s, n: (
        reads.append(("run", f, s, n)), read_run(f, s, n))[1]

    def drive(mark):
        for op, name, args in _pool_script():
            file = files[name]
            if op == "page":
                pool.get_page(file, *args)
            elif op == "hint":
                pool.get_page(file, *args, stream_hint=True)
            elif op == "run":
                pool.get_run(file, *args)
            else:
                pool.touch_pages(file, *args)
            mark()

    _, charges = observe(SimpleNamespace(runtime=SimpleNamespace(clock=clock)),
                         drive)
    return {"reads": digest(reads), **charges,
            "hits": pool.stats.hits, "misses": pool.stats.misses,
            "lru": digest(list(pool._pages))}


POOL_GOLDEN = {
    1: {"reads": [439, "1ec305dd79155658"], "cpu": [301, "825cea465c5086c3"],
        "io": [301, "915e6106a52c7bdb"], "hits": 9, "misses": 770,
        "lru": [1, "1a4919f5f1c3e712"]},
    4: {"reads": [415, "af700ce7f4418c2c"], "cpu": [301, "b8de720a76c79132"],
        "io": [301, "fcff121916715d0d"], "hits": 59, "misses": 720,
        "lru": [4, "d7ebeaf8948f7160"]},
    64: {"reads": [61, "8e131f8b628e896b"], "cpu": [301, "c9cf9b1db95469f5"],
         "io": [301, "076f104e4b96d357"], "hits": 708, "misses": 71,
         "lru": [64, "04fce8c3c07ef05d"]},
}


@pytest.mark.parametrize("capacity", [1, 4, 64])
def test_pool_transitions_match_the_golden(capacity, observe_charges):
    assert _run_pool_script(capacity, observe_charges) \
        == POOL_GOLDEN[capacity]


# -- the pool against a reference LRU over keys -----------------------------


class _ReferenceLRU:
    """Strict LRU over keys: each requested page, in order, is a hit
    (moved to the back) or a miss (read, admitted, the oldest evicted when
    full); a run reads each maximal span of its misses with one
    ``read_run``, when the span ends."""

    def __init__(self, capacity):
        self.capacity, self.keys, self.reads = capacity, [], []
        self.hits = self.misses = 0

    def _request(self, key):
        hit = key in self.keys
        if hit:
            self.keys.remove(key)
        self.keys = (self.keys + [key])[-self.capacity:]
        self.hits += hit
        self.misses += not hit
        return hit

    def get_page(self, file_id, pid):
        hit = self._request((file_id, pid))
        if not hit:
            self.reads.append(("page", file_id, pid))
        return hit

    def get_run(self, file_id, start, stop):
        span = []
        for pid in range(start, stop):
            if not self._request((file_id, pid)):
                span.append(pid)
            elif span:
                self.reads.append(("run", file_id, span[0], len(span)))
                span = []
        if span:
            self.reads.append(("run", file_id, span[0], len(span)))


_requests = st.lists(st.tuples(
    st.sampled_from(("page", "run", "touch")), st.integers(0, 1),
    st.integers(0, 24), st.integers(0, 12)), max_size=40)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), _requests)
def test_property_the_pool_is_a_strict_lru_over_keys(capacity, requests):
    files = _pool_files()  # file ids 0 and 1
    disk = SimulatedDisk(clock=SimClock())
    pool = BufferPool(disk=disk, capacity_pages=capacity)
    ref = _ReferenceLRU(capacity)
    reads = []
    disk.read_page = lambda f, p, stream_hint=False: reads.append(
        ("page", f, p))
    disk.read_run = lambda f, s, n: reads.append(("run", f, s, n))
    for op, file_id, pid, n in requests:
        file = files[file_id]
        if op == "page":
            pool.get_page(file, pid)
            ref.get_page(file_id, pid)
        elif op == "run":
            stop = max(pid, min(pid + n, file.num_pages))
            assert pool.get_run(file, pid, n) == range(pid, stop)
            ref.get_run(file_id, pid, stop)
        else:
            pids = [(pid + 7 * i) % 25 for i in range(n)]
            hits = pool.stats.hits
            pool.touch_pages(file, pids)
            assert pool.stats.hits - hits == sum(
                ref.get_page(file_id, p) for p in pids)
    assert reads == ref.reads
    assert list(pool._pages) == ref.keys
    assert (pool.stats.hits, pool.stats.misses) == (ref.hits, ref.misses)
    # Every request path counts its own hits on the clock.
    assert disk.clock.counts[BUFFER_HIT] == pool.stats.hits

"""Smooth Scan's auxiliary structures: bitmaps and the Result Cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.caches import PageIdCache, ResultCache, TupleIdCache
from repro.errors import ExecutionError
from repro.storage.disk import DiskProfile, SimClock, SimulatedDisk


def test_page_id_cache_marks_once():
    cache = PageIdCache(100)
    assert not cache.is_seen(5)
    assert cache.mark(5) is True
    assert cache.is_seen(5)
    assert cache.mark(5) is False
    assert cache.pages_seen == 1


def test_page_id_cache_bounds():
    cache = PageIdCache(10)
    with pytest.raises(ExecutionError):
        cache.mark(10)
    with pytest.raises(ExecutionError):
        cache.mark(-1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, n - 1)),
    st.integers(0, n), st.integers(0, n))))
def test_property_unseen_runs_are_what_a_page_walk_finds(case):
    """The region walk Smooth Scan used to do, one ``is_seen`` a page."""
    num_pages, seen, a, b = case
    start, end = min(a, b), max(a, b)
    cache = PageIdCache(num_pages)
    for pid in seen:
        cache.mark(pid)
    runs, run_start = [], None
    for pid in range(start, end):
        if cache.is_seen(pid):
            if run_start is not None:
                runs.append((run_start, pid - run_start))
                run_start = None
        elif run_start is None:
            run_start = pid
    if run_start is not None:
        runs.append((run_start, end - run_start))
    assert cache.unseen_runs(start, end) == runs


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, n - 1)),
    st.integers(-2, n + 2), st.integers(0, n + 2))))
def test_property_mark_run_is_one_mark_per_page(case):
    """Bits, ``pages_seen``, the count of new pages and the out-of-bounds
    error of ``mark_run`` are those of a ``mark`` per page — and the live
    view handed out before the run sees it."""
    num_pages, seen, start, n = case
    by_run, by_page = PageIdCache(num_pages), PageIdCache(num_pages)
    for pid in seen:
        by_run.mark(pid)
        by_page.mark(pid)
    view = by_run.seen_view()
    if n and (start < 0 or start + n > num_pages):
        with pytest.raises(ExecutionError) as per_page:
            for pid in range(start, start + n):
                by_page.mark(pid)
        with pytest.raises(ExecutionError) as per_run:
            by_run.mark_run(start, n)
        assert str(per_run.value) == str(per_page.value)
        return
    start = max(start, 0)  # (an empty run may start anywhere)
    new = sum(by_page.mark(pid) for pid in range(start, start + n))
    assert by_run.mark_run(start, n) == new
    assert by_run.pages_seen == by_page.pages_seen
    assert view.tobytes() == by_page.seen_view().tobytes()
    assert view is not by_run.seen_view()  # a fresh view of the same bytes
    assert [by_run.is_seen(pid) for pid in range(num_pages)] == [
        pid in seen or start <= pid < start + n for pid in range(num_pages)]
    assert by_run.unseen_runs(0, num_pages) == by_page.unseen_runs(0, num_pages)


def test_mark_run_of_nothing_and_on_an_empty_table():
    cache = PageIdCache(0)
    assert cache.mark_run(0, 0) == 0
    with pytest.raises(ExecutionError, match="page id 0 outside table of 0"):
        cache.mark_run(0, 1)
    cache = PageIdCache(9)
    assert cache.mark_run(3, 0) == 0 and cache.pages_seen == 0
    assert cache.mark_run(7, 2) == 2 and cache.mark_run(6, 3) == 1
    assert cache.unseen_runs(0, 9) == [(0, 6)]


def test_page_id_cache_memory_is_bitmap_sized():
    # One bit per page: 1M pages -> 125KB (the paper quotes 140KB).
    cache = PageIdCache(1_000_000)
    assert cache.memory_bytes == 125_000


def test_tuple_id_cache():
    cache = TupleIdCache(num_pages=10, tuples_per_page=8)
    tid = 3 * 8 + 4  # page 3, slot 4
    assert not cache.contains(tid)
    cache.add(tid)
    assert cache.contains(tid)
    cache.add(tid)
    assert cache.recorded == 1
    assert not cache.contains(tid + 1)


def test_tuple_id_cache_distinct_positions():
    cache = TupleIdCache(num_pages=4, tuples_per_page=4)
    cache.add(4)  # page 1, slot 0
    assert cache.contains(4)
    assert not cache.contains(3)  # page 0, slot 3
    assert not cache.contains(5)  # page 1, slot 1
    assert not cache.contains(8)  # page 2, slot 0


@pytest.fixture()
def rc():
    return ResultCache(separators=[10, 20, 30], bytes_per_entry=64)


def test_result_cache_partition_of(rc):
    assert rc.partition_of(5) == 0
    assert rc.partition_of(10) == 1
    assert rc.partition_of(25) == 2
    assert rc.partition_of(99) == 3
    assert rc.num_partitions == 4


def test_result_cache_insert_take(rc):
    tid = 101
    rc.insert(5, tid, ("row",))
    assert rc.take(5, tid) == ("row",)
    assert rc.take(5, 909) is None
    assert rc.stats.hits == 1
    assert rc.stats.probes == 2


def test_result_cache_advance_bulk_evicts(rc):
    rc.insert(5, 0, ("a",))
    rc.insert(15, 1, ("b",))
    rc.insert(35, 2, ("c",))
    assert rc.entries == 3
    evicted = rc.advance(20)  # partitions below 20 fully passed
    assert evicted == 2
    assert rc.entries == 1
    assert rc.take(35, 2) == ("c",)


def test_result_cache_advance_keeps_current_key_partition(rc):
    rc.insert(10, 0, ("edge",))  # partition 1 ([10, 20))
    rc.advance(10)
    assert rc.take(10, 0) == ("edge",)


def test_result_cache_peak_tracking(rc):
    for i in range(5):
        rc.insert(5, i, (i,))
    rc.advance(50)
    assert rc.stats.peak_entries == 5
    assert rc.stats.peak_bytes == 5 * 64
    assert rc.entries == 0


def test_result_cache_hit_rate(rc):
    rc.insert(5, 0, ("a",))
    rc.take(5, 0)
    rc.take(5, 1)
    assert rc.stats.hit_rate == pytest.approx(0.5)


def test_result_cache_spill_and_unspill():
    disk = SimulatedDisk(clock=SimClock())
    cache = ResultCache(separators=[100], bytes_per_entry=1000,
                        memory_limit_bytes=3000, page_bytes=8192)
    # Fill the far partition (keys >= 100) past the limit while probing
    # near the low one.
    for i in range(5):
        cache.insert(200, 100 + i, (i,), disk=disk)
    assert cache.stats.spills >= 1
    assert disk.stats.requests > 0
    # Probing the spilled partition reads it back.
    row = cache.take(200, 100, disk=disk)
    assert row == (0,)
    assert cache.stats.unspills == 1


def test_result_cache_no_separators_single_partition():
    cache = ResultCache(separators=[], bytes_per_entry=10)
    cache.insert(1, 0, ("x",))
    assert cache.num_partitions == 1
    assert cache.take(999, 0) == ("x",)


def test_page_id_cache_rejects_marks_on_empty_table():
    # Regression: the bounds check used max(1, num_pages), accepting page
    # 0 of a zero-page table.
    cache = PageIdCache(0)
    with pytest.raises(ExecutionError):
        cache.mark(0)
    assert not cache.is_seen(0)
    assert cache.pages_seen == 0


def test_result_cache_advance_counts_spilled_evictions():
    # Regression: spilled partitions were dropped without counting their
    # entries in evicted_entries.
    disk = SimulatedDisk(clock=SimClock())
    cache = ResultCache(separators=[100, 200, 300], bytes_per_entry=1000,
                        memory_limit_bytes=3000, page_bytes=8192)
    for i in range(5):  # partition [200, 300): spills past the limit
        cache.insert(250, 100 + i, (i,), disk=disk)
    assert cache.stats.spills >= 1
    spilled_entries = 5 - cache.entries
    assert spilled_entries > 0
    cache.insert(50, 0, ("low",), disk=disk)
    in_memory = cache.entries
    evicted = cache.advance(300)  # passes every separator
    assert evicted == in_memory + spilled_entries
    assert cache.stats.evicted_entries == evicted
    assert cache.entries == 0


def test_result_cache_advance_is_incremental():
    # advance() must not rescan separators already passed: once a
    # partition is evicted, re-advancing with the same key is a no-op
    # and later separators are still honored.
    cache = ResultCache(separators=[10, 20, 30], bytes_per_entry=64)
    cache.insert(5, 0, ("a",))
    cache.insert(15, 1, ("b",))
    cache.insert(35, 2, ("c",))
    assert cache.advance(12) == 1     # partition [.., 10) dropped
    assert cache.advance(12) == 0     # same key again: nothing new
    assert cache.advance(5) == 0      # keys never move backwards in a scan
    assert cache.advance(30) == 1     # partitions [10,20) and [20,30)
    assert cache.take(35, 2) == ("c",)


def test_result_cache_unspill_charges_read_not_spill():
    # Regression: _unspill charged disk.spill() — a write-plus-read —
    # when reading an overflow file back.
    disk = SimulatedDisk(clock=SimClock())
    cache = ResultCache(separators=[100], bytes_per_entry=1000,
                        memory_limit_bytes=3000, page_bytes=8192)
    for i in range(5):
        cache.insert(200, 100 + i, (i,), disk=disk)
    assert cache.stats.spills == 1
    spill_pages = cache.stats.spill_pages_written
    assert spill_pages >= 1
    assert disk.stats.pages_written == spill_pages
    assert disk.stats.pages_read == 0  # the write is not a read

    before_io = disk.clock.io_ms
    read_before = disk.stats.pages_read
    cache.take(200, 100, disk=disk)
    assert cache.stats.unspills == 1
    assert cache.stats.unspill_pages_read == spill_pages
    assert disk.stats.pages_read - read_before == spill_pages
    # The read-back costs one sequential pass, not the 2x of a spill.
    expected = DiskProfile.hdd().page_ms(True) * spill_pages
    assert disk.clock.io_ms - before_io == pytest.approx(expected)


def test_result_cache_insert_below_advanced_position_raises():
    # The probe never moves backwards; parking a tuple whose probe has
    # already passed would leak it forever, so insert() refuses loudly.
    cache = ResultCache(separators=[10, 20, 30], bytes_per_entry=64)
    cache.advance(15)  # partitions below 10 are gone
    with pytest.raises(ExecutionError):
        cache.insert(5, 0, ("late",))
    cache.insert(15, 1, ("ok",))  # current partition still fine


def test_result_cache_insert_into_spilled_partition_counts_on_advance():
    disk = SimulatedDisk(clock=SimClock())
    cache = ResultCache(separators=[100, 400], bytes_per_entry=1000,
                        memory_limit_bytes=3000, page_bytes=8192)
    for i in range(5):  # partition [100, 400): spills past the limit
        cache.insert(200, 100 + i, (i,), disk=disk)
    assert cache.stats.spills == 1
    # A new insert lands in the overflow file, and advance still counts it.
    cache.insert(300, 200, ("late",), disk=disk)
    assert cache.advance(400) == 6

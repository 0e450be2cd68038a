"""SimulatedDisk cost accounting: the substrate every result rests on."""

import pytest

from repro.config import CpuCosts
from repro.storage.disk import (
    KINDS,
    RAND_PAGE,
    DiskProfile,
    DiskStats,
    SimClock,
    SimulatedDisk,
)


@pytest.fixture()
def disk():
    return SimulatedDisk(clock=SimClock(), page_size=8192, extent_pages=16)


def test_hdd_profile_ratio():
    hdd = DiskProfile.hdd()
    assert hdd.rand_cost / hdd.seq_cost == 10.0


def test_ssd_profile_ratio():
    ssd = DiskProfile.ssd()
    assert ssd.rand_cost / ssd.seq_cost == 2.0


def test_first_read_is_random(disk):
    disk.read_page(0, 10)
    assert disk.stats.rand_pages == 1
    assert disk.stats.seq_pages == 0
    assert disk.stats.requests == 1


def test_adjacent_read_is_sequential(disk):
    disk.read_page(0, 10)
    disk.read_page(0, 11)
    assert disk.stats.seq_pages == 1
    assert disk.stats.rand_pages == 1


def test_short_forward_skip_is_sequential(disk):
    # Prefetchers absorb small forward skips (Sort Scan's pattern).
    disk.read_page(0, 10)
    disk.read_page(0, 10 + disk.seq_window)
    assert disk.stats.seq_pages == 1


def test_long_forward_jump_is_random(disk):
    disk.read_page(0, 10)
    disk.read_page(0, 11 + disk.seq_window)
    assert disk.stats.rand_pages == 2


def test_backward_read_is_random(disk):
    disk.read_page(0, 10)
    disk.read_page(0, 9)
    assert disk.stats.rand_pages == 2


def test_other_file_breaks_sequence(disk):
    disk.read_page(0, 10)
    disk.read_page(1, 11)
    assert disk.stats.rand_pages == 2


def test_stream_hint_survives_interleaving(disk):
    # A leaf chain stays sequential across interleaved heap reads.
    disk.read_page(1, 0, stream_hint=True)
    disk.read_page(0, 500)             # heap fetch in between
    disk.read_page(1, 1, stream_hint=True)
    assert disk.stats.seq_pages == 1
    assert disk.stats.rand_pages == 2


def test_read_run_costs_one_random_plus_sequential(disk):
    disk.read_run(0, 100, 8)
    expected = DiskProfile.hdd().page_ms(False) + 7 * DiskProfile.hdd().page_ms(True)
    assert disk.clock.io_ms == pytest.approx(expected)
    assert disk.stats.pages_read == 8
    assert disk.stats.requests == 1  # within one extent


def test_read_run_requests_batched_per_extent(disk):
    disk.read_run(0, 0, 33)
    assert disk.stats.requests == 3  # ceil(33/16)


def test_read_run_continuation_is_fully_sequential(disk):
    disk.read_run(0, 0, 16)
    disk.read_run(0, 16, 16)
    assert disk.stats.rand_pages == 1
    assert disk.stats.seq_pages == 31


def test_read_run_empty_is_free(disk):
    disk.read_run(0, 0, 0)
    assert disk.stats.pages_read == 0
    assert disk.clock.total_ms == 0


def test_bytes_accounting(disk):
    disk.read_page(0, 0)
    disk.read_run(0, 1, 4)
    assert disk.stats.bytes_read == 5 * 8192


def test_spill_charges_two_sequential_passes(disk):
    disk.spill(32)
    expected = 2 * 32 * DiskProfile.hdd().page_ms(True)
    assert disk.clock.io_ms == pytest.approx(expected)
    assert disk.stats.requests == 4  # 2 x ceil(32/16)


def test_stats_snapshot_diff():
    stats = DiskStats(requests=5, pages_read=10, seq_pages=7,
                      rand_pages=3, bytes_read=100)
    before = stats.snapshot()
    stats.requests += 2
    stats.pages_read += 1
    delta = stats.diff(before)
    assert delta.requests == 2
    assert delta.pages_read == 1


def test_clock_split_and_reset():
    clock = SimClock()
    clock.counts[RAND_PAGE] += 5
    clock.counts[KINDS.index("tuple_inspect")] += 10_000
    assert clock.io_ms == 5 * DiskProfile.hdd().page_ms(False)
    assert clock.cpu_ms == 10_000 * CpuCosts().tuple_inspect
    assert clock.total_ms == clock.io_ms + clock.cpu_ms
    assert clock.snapshot() == {1: [10_000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5]}
    clock.reset()
    assert clock.total_ms == 0.0 and clock.snapshot() == {1: [0] * 11}


def test_disk_reset_clears_head(disk):
    disk.read_page(0, 10)
    disk.reset()
    disk.read_page(0, 11)
    assert disk.stats.rand_pages == 1  # no memory of the pre-reset head

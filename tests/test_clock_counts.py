"""The clock counts events: totals and ledgers do not depend on order.

A charge is ``n`` events of one kind, counted in the row of the overlap
divisor it happened under.  Milliseconds are derived from the counts, so
any order of the same charges — and any split of one charge of ``n``
into smaller ones — leaves equal clocks, equal ledgers and equal
milliseconds to the bit, and per-shard ledgers sum to the query ledger
with ``==``.
"""

import json
from itertools import groupby

from hypothesis import given, settings, strategies as st

from repro.config import EngineConfig
from repro.runtime import CostLedger, EngineRuntime
from repro.storage.disk import KINDS, RAND_PAGE, DiskProfile, SimClock

SHARDS = 3

#: (kind, n, overlap divisor, shard) — one charge of ``n`` events.
_CHARGES = st.lists(st.tuples(
    st.integers(0, len(KINDS) - 1), st.integers(0, 10**6),
    st.sampled_from([1, 2, 3, 4, 6, 12]), st.integers(0, SHARDS - 1)),
    max_size=40)


def _apply(profile, charges, order, query_cuts, splits):
    """Run ``charges`` in ``order`` on a fresh runtime.

    The query window is closed and reopened after every position in
    ``query_cuts``; inside it, consecutive charges of one shard share a
    shard window; a charge whose position is in ``splits`` is made as
    two charges that add up to it.
    """
    runtime = EngineRuntime(EngineConfig(), profile)
    clock = runtime.clock
    query = CostLedger()
    shards = [CostLedger() for _ in range(SHARDS)]
    windows = [[]]
    for position, i in enumerate(order):
        windows[-1].append((position, charges[i]))
        if position in query_cuts:
            windows.append([])
    for window in windows:
        runtime.begin_attribution(query)
        try:
            for shard, run in groupby(window, key=lambda pc: pc[1][3]):
                runtime.begin_shard_attribution(shards[shard])
                try:
                    for position, (kind, n, divisor, _) in run:
                        clock.set_divisor(divisor)
                        parts = ((n // 3, n - n // 3) if position in splits
                                 else (n,))
                        for part in parts:
                            clock.counts[kind] += part
                        clock.set_divisor(1)
                finally:
                    runtime.end_shard_attribution()
        finally:
            runtime.end_attribution()
    return runtime, query, shards


@settings(max_examples=150, deadline=None)
@given(data=st.data(), charges=_CHARGES,
       profile=st.sampled_from([DiskProfile.hdd(), DiskProfile.ssd()]))
def test_any_order_of_the_same_charges_counts_the_same(data, charges,
                                                       profile):
    positions = st.sets(st.integers(0, max(0, len(charges) - 1)))
    runs = [
        _apply(profile, charges,
               data.draw(st.permutations(range(len(charges)))),
               data.draw(positions), data.draw(positions))
        for _ in range(2)
    ]
    (one, query_one, shards_one), (two, query_two, shards_two) = runs
    # Equal clocks: the same counts, so the same milliseconds to the bit.
    assert one.clock.snapshot() == two.clock.snapshot()
    assert (one.clock.io_ms, one.clock.cpu_ms) == (two.clock.io_ms,
                                                  two.clock.cpu_ms)
    # Equal ledgers, query and per shard.
    assert query_one == query_two
    assert query_one.total_ms == query_two.total_ms
    assert shards_one == shards_two
    for runtime, query, shards in runs:
        summed = CostLedger()
        for ledger in shards:
            summed.add(ledger)
        assert summed == query == runtime.totals()
        assert summed.total_ms == query.total_ms == runtime.clock.total_ms
        # The wire form rebuilds an equal ledger.
        wire = CostLedger.from_dict(json.loads(json.dumps(query.to_dict())))
        assert wire == query and wire.io_ms == query.io_ms


def test_milliseconds_are_counts_times_units_over_the_divisor():
    clock = SimClock()
    rand_ms = DiskProfile.hdd().page_ms(False)
    clock.counts[RAND_PAGE] += 2
    clock.set_divisor(4)
    clock.counts[RAND_PAGE] += 4
    clock.set_divisor(1)
    assert clock.rows == {1: [0] * 10 + [2], 4: [0] * 10 + [4]}
    assert clock.io_ms == 2 * rand_ms + 4 * rand_ms / 4
    assert clock.cpu_ms == 0.0


def test_an_empty_ledger_costs_nothing_and_takes_units_when_added():
    empty = CostLedger()
    assert (empty.io_ms, empty.cpu_ms, empty.total_ms) == (0.0, 0.0, 0.0)
    runtime = EngineRuntime(EngineConfig(), DiskProfile.ssd())
    runtime.clock.counts[RAND_PAGE] += 1
    empty.add(runtime.totals())
    assert empty.units == runtime.clock.units
    assert empty.io_ms == DiskProfile.ssd().page_ms(False)

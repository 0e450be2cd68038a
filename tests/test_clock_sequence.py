"""``SimClock.charge_cpu_seq`` is the per-element loop, bit for bit."""

import numpy as np
from hypothesis import given, strategies as st

from repro.runtime import CostLedger
from repro.storage.disk import SimClock

# The engine's unit costs and their small multiples, plus arbitrary
# non-negative floats: the sums must agree in every bit, not to a tolerance.
_COSTS = st.one_of(
    st.sampled_from([0.0, 5e-05, 8e-05, 0.0001, 0.00015, 0.0002, 0.0615]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


@given(
    costs=st.lists(_COSTS, max_size=300),
    scale=st.sampled_from([1.0, 1 / 2, 1 / 3, 1 / 4]),
    start=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    ledger_base=st.none() | st.floats(min_value=0.0, max_value=1e9,
                                      allow_nan=False),
    as_array=st.booleans(),
)
def test_charge_cpu_seq_equals_the_per_element_loop(
        costs, scale, start, ledger_base, as_array):
    def clock():
        ledger = None if ledger_base is None \
            else CostLedger(cpu_ms=ledger_base, io_ms=1.5)
        return SimClock(io_ms=2.5, cpu_ms=start, scale=scale, ledger=ledger)

    looped, batched = clock(), clock()
    for ms in costs:
        looped.charge_cpu(ms)
    batched.charge_cpu_seq(np.array(costs, dtype=np.float64)
                           if as_array else costs)

    assert batched.cpu_ms.hex() == looped.cpu_ms.hex()
    assert type(batched.cpu_ms) is float
    assert batched.io_ms == 2.5
    if ledger_base is not None:
        assert batched.ledger.cpu_ms.hex() == looped.ledger.cpu_ms.hex()
        assert type(batched.ledger.cpu_ms) is float
        assert batched.ledger.io_ms == 1.5


def test_charge_cpu_seq_of_nothing_and_of_one():
    clock = SimClock(cpu_ms=0.3, ledger=CostLedger())
    clock.charge_cpu_seq([])
    clock.charge_cpu_seq(np.empty(0))
    assert (clock.cpu_ms, clock.ledger.cpu_ms) == (0.3, 0.0)
    clock.charge_cpu_seq([0.0002])
    assert clock.cpu_ms == 0.3 + 0.0002
    assert clock.ledger.cpu_ms == 0.0002


# -- a Smooth Scan run's page charges: the sequence and the calls it stands for


@given(
    per_page=st.integers(1, 150),
    n_pages=st.integers(1, 64),
    short=st.integers(0, 149),
    scale=st.sampled_from([1.0, 1 / 2, 1 / 3, 1 / 4]),
    start=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ledger_base=st.none() | st.floats(min_value=0.0, max_value=1e6,
                                      allow_nan=False),
)
def test_a_runs_page_charges_equal_the_per_page_calls(
        per_page, n_pages, short, scale, start, ledger_base):
    """``cache_insert`` then ``inspect(rows on the page)``, page after
    page, with a short last page — short runs charge call by call, long
    ones hand ``charge_cpu_seq`` the interleaved sequence; both are the
    per-page loop in every bit, under an Exchange's scale and an open
    ledger."""
    from repro.core.smooth_scan import _DIRECT_CHARGE_PAGES, _charge_pages
    from repro.database import Database

    n_rows = n_pages * per_page - short % per_page

    def context():
        ctx = Database().context()
        clock = ctx.clock
        clock.cpu_ms, clock.scale = start, scale
        clock.ledger = None if ledger_base is None \
            else CostLedger(cpu_ms=ledger_base)
        return ctx

    looped, charged = context(), context()
    for page in range(n_pages):
        looped.charge_cache_insert()
        looped.charge_inspect(min(per_page, n_rows - page * per_page))
    sequences = []
    seq = charged.clock.charge_cpu_seq
    charged.clock.charge_cpu_seq = lambda costs: (
        sequences.append(len(costs)), seq(costs))[1]
    _charge_pages(charged, per_page, n_pages, n_rows)

    assert sequences == ([] if n_pages <= _DIRECT_CHARGE_PAGES
                         else [2 * n_pages])
    assert charged.clock.cpu_ms.hex() == looped.clock.cpu_ms.hex()
    assert charged.clock.io_ms == looped.clock.io_ms == 0.0
    if ledger_base is not None:
        assert (charged.clock.ledger.cpu_ms.hex()
                == looped.clock.ledger.cpu_ms.hex())

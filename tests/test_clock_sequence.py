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

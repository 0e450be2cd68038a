"""Shared fixtures: small databases reused across the test suite."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.database import Database
from repro.storage.types import Schema
from repro.workloads.micro import build_micro_table


@pytest.fixture()
def db() -> Database:
    """A fresh default-config database."""
    return Database()


@pytest.fixture(scope="session")
def micro_setup():
    """A session-shared micro-benchmark table (12K rows = 100 pages).

    Queries only read; ``measure`` resets caches per run, so sharing is
    safe and saves rebuild time across the suite.
    """
    database = Database()
    table = build_micro_table(database, num_tuples=12_000, seed=7)
    return database, table


@pytest.fixture()
def small_table(db):
    """A 3-column table with deterministic values and an index on c2."""
    rng = random.Random(123)
    schema = Schema.of_ints(["c1", "c2", "c3"])
    rows = [
        (i, rng.randrange(0, 1000), rng.randrange(0, 10))
        for i in range(5_000)
    ]
    table = db.load_table("t", schema, rows)
    db.create_index("t", "c2")
    return db, table


def _digest(values):
    """``[length, SHA-256 prefix of repr]``: a sequence at golden size."""
    return [len(values),
            hashlib.sha256(repr(values).encode()).hexdigest()[:16]]


def _observe_charges(db, fn):
    """Call ``fn()``; its result and what it charged.

    The charges are length + SHA-256 of the exact argument sequences of
    ``SimClock.charge_cpu`` / ``charge_io`` — the form the
    frozen-at-the-parent goldens are kept in.  A ``charge_cpu_seq`` call
    is recorded element by element, as the per-element charges it stands
    for, so goldens frozen before a loop became a sequence still hold.
    """
    cpu, io = [], []
    # Hooked on the runtime's clock instance, outside whatever is there
    # already (the ledger sanitizer hooks the same attributes).
    clock = db.runtime.clock
    charge_cpu, charge_io = clock.charge_cpu, clock.charge_io
    charge_cpu_seq = clock.charge_cpu_seq
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clock, "charge_cpu",
                      lambda ms: (cpu.append(ms), charge_cpu(ms))[1])
        patch.setattr(clock, "charge_cpu_seq", lambda costs: (
            cpu.extend(costs.tolist()), charge_cpu_seq(costs))[1])
        patch.setattr(clock, "charge_io",
                      lambda ms: (io.append(ms), charge_io(ms))[1])
        result = fn()
    return result, {"cpu": _digest(cpu), "io": _digest(io)}


def _observe_plan(db, plan, cold=True):
    """Run ``plan`` (cold by default) batch by batch; what it produced
    and charged.

    Returns the rows and a JSON-sized record of the run: row count and
    SHA-256 of ``repr(rows)``, the batch lengths, and the charge record
    of :func:`_observe_charges` — the form the scan regression tests'
    goldens are kept in.
    """
    from repro.exec.stats import StreamingRun

    def drain():
        run = StreamingRun(db, plan, cold=cold)
        rows, lengths = [], []
        while (batch := run.next_batch()) is not None:
            lengths.append(len(batch))
            rows.extend(batch)
        return rows, lengths

    (rows, lengths), charges = _observe_charges(db, drain)
    return rows, {"rows": _digest(rows), "batches": lengths, **charges}


@pytest.fixture(scope="session")
def observe_charges():
    """:func:`_observe_charges` and :func:`_digest`, for tests that hold
    something other than a plan to a charge golden (stateless, so
    session-scoped: hypothesis tests may take it)."""
    return _observe_charges, _digest


@pytest.fixture()
def observe_plan():
    """:func:`_observe_plan`, for tests that hold a plan to a golden."""
    return _observe_plan

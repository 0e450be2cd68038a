"""Shared fixtures: small databases reused across the test suite."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.database import Database
from repro.storage.disk import IO_KINDS, KINDS, add_counts
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
    """Call ``fn(mark)``; its result and what it charged, batch by batch.

    A batch is what the clock counted between two calls of ``mark()``
    (the last one runs to ``fn``'s return): ``(kind, divisor, n)`` for
    every nonzero count, in kind then divisor order.  The record is
    length + SHA-256 of the per-batch CPU counts and of the per-batch
    page units — the form the charge goldens are kept in.  A cold
    start's reset of the clock is bridged, so a batch spans one.

    The goldens' ``cpu`` / ``io`` records were re-recorded in this form
    at the commit before the clock counted events, by counting every
    charge call there by kind and overlap divisor (``round(1 / scale)``);
    each golden's other fields are as first recorded.
    """
    clock = db.runtime.clock
    batches = []
    pending: dict = {}
    base = [clock.snapshot()]

    def fold():
        add_counts(pending, clock.rows, base[0])
        base[0] = clock.snapshot()

    def mark():
        fold()
        counted = sorted((kind, divisor, n)
                         for divisor, row in pending.items()
                         for kind, n in enumerate(row) if n)
        batches.append(tuple(
            tuple((KINDS[kind], divisor, n) for kind, divisor, n in counted
                  if (kind in IO_KINDS) == io) for io in (False, True)))
        pending.clear()

    reset = clock.reset

    def bridged_reset():
        fold()
        reset()
        base[0] = clock.snapshot()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clock, "reset", bridged_reset)
        result = fn(mark)
    mark()
    return result, {"cpu": _digest([cpu for cpu, _ in batches]),
                    "io": _digest([io for _, io in batches])}


def _observe_plan(db, plan, cold=True):
    """Run ``plan`` (cold by default) batch by batch; what it produced
    and charged.

    Returns the rows and a JSON-sized record of the run: row count and
    SHA-256 of ``repr(rows)``, the batch lengths, and the charge record
    of :func:`_observe_charges` — the form the scan regression tests'
    goldens are kept in.
    """
    from repro.exec.stats import StreamingRun

    def drain(mark):
        run = StreamingRun(db, plan, cold=cold)
        rows, lengths = [], []
        while (batch := run.next_batch()) is not None:
            lengths.append(len(batch))
            rows.extend(batch)
            mark()
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

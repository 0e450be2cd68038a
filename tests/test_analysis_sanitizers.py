"""Runtime sanitizers: planted defects are caught, clean runs pass."""

import pytest

from repro.analysis.sanitizers import (
    DeterminismSanitizer,
    LedgerSanitizer,
    SanitizerError,
)
from repro.database import Database
from repro.storage.disk import KINDS, RAND_PAGE
from repro.storage.types import Schema

# These tests install their own sanitizers and plant deliberate
# violations; the suite-wide --sanitize=ledger arming must stay out.
pytestmark = pytest.mark.no_suite_sanitizer

ROWS = [(i, i % 10) for i in range(3_000)]
SQL = "SELECT a FROM t WHERE b = :b"
INSPECT = KINDS.index("tuple_inspect")


def make_db():
    db = Database()
    db.load_table("t", Schema.of_ints(["a", "b"]), ROWS)
    return db


def run_query(db, b=3):
    with db.connect() as conn:
        return conn.run(SQL, {"b": b}, keep_rows=True)


# -- LedgerSanitizer ----------------------------------------------------------


def test_clean_run_passes_under_sanitizer():
    db = make_db()
    with LedgerSanitizer(db.runtime) as sanitizer:
        run_query(db)
        assert sanitizer.armed
    assert sanitizer.violations == []


def test_setup_phase_before_first_window_is_exempt():
    db = Database()
    sanitizer = LedgerSanitizer(db.runtime).install()
    # Bulk load charges plenty of simulated cost — legitimately outside
    # any window, because no query has run yet (the sanitizer is unarmed).
    db.load_table("t", Schema.of_ints(["a", "b"]), ROWS)
    assert not sanitizer.armed
    run_query(db)
    sanitizer.check()
    sanitizer.uninstall()
    assert sanitizer.violations == []


def test_planted_unattributed_charge_is_caught():
    db = make_db()
    sanitizer = LedgerSanitizer(db.runtime).install()
    run_query(db)
    db.clock.counts[RAND_PAGE] += 5  # the planted defect
    with pytest.raises(SanitizerError, match="outside any window"):
        sanitizer.check()
    assert sanitizer.violations[0].kind == "unattributed-counters"
    assert "rand_page+5" in sanitizer.violations[0].detail
    sanitizer.uninstall()


def test_planted_unattributed_sequence_charge_is_caught():
    """A charge of ``n`` events between windows is caught at the next
    window, with its count and its overlap divisor."""
    db = make_db()
    sanitizer = LedgerSanitizer(db.runtime).install()
    run_query(db)
    db.clock.set_divisor(3)
    db.clock.counts[INSPECT] += 250  # the planted defect
    db.clock.set_divisor(1)
    with pytest.raises(SanitizerError, match="tuple_inspect/3\\+250"):
        run_query(db)
    sanitizer.uninstall()


def test_planted_non_integer_count_is_caught():
    db = make_db()
    sanitizer = LedgerSanitizer(db.runtime, strict=False).install()
    run_query(db)
    # repro: allow[RPL105] -- the planted defect: n must be an int
    db.clock.counts[INSPECT] += 0.5
    sanitizer.check()
    sanitizer.uninstall()
    assert [v.kind for v in sanitizer.violations] == [
        "non-integer-count", "unattributed-counters"]
    assert "tuple_inspect" in sanitizer.violations[0].detail


def test_planted_counter_drift_is_caught_at_check():
    db = make_db()
    sanitizer = LedgerSanitizer(db.runtime).install()
    run_query(db)
    db.disk.stats.pages_read += 3  # the planted defect
    with pytest.raises(SanitizerError, match="pages_read\\+3"):
        sanitizer.check()
    assert sanitizer.violations[0].kind == "unattributed-counters"
    sanitizer.uninstall()


def test_planted_counter_drift_is_caught_at_next_window():
    db = make_db()
    sanitizer = LedgerSanitizer(db.runtime).install()
    run_query(db)
    db.buffer.stats.hits += 1  # the planted defect
    with pytest.raises(SanitizerError, match="buffer_hits\\+1"):
        run_query(db)
    sanitizer.uninstall()


def test_cold_start_reset_is_not_a_violation():
    db = make_db()
    with LedgerSanitizer(db.runtime):
        run_query(db)
        db.runtime.cold_start()
        run_query(db)


def test_non_strict_collects_instead_of_raising():
    db = make_db()
    sanitizer = LedgerSanitizer(db.runtime, strict=False).install()
    run_query(db)
    db.clock.counts[INSPECT] += 1
    sanitizer.check()
    db.clock.counts[INSPECT] += 1
    sanitizer.check()
    sanitizer.uninstall()
    assert len(sanitizer.violations) == 2
    assert all("tuple_inspect+1" in v.detail for v in sanitizer.violations)
    assert all(v.where for v in sanitizer.violations)


def test_uninstall_restores_the_runtime():
    db = make_db()
    sanitizer = LedgerSanitizer(db.runtime).install()
    run_query(db)
    sanitizer.uninstall()
    assert "begin_attribution" not in vars(db.runtime)
    db.clock.counts[RAND_PAGE] += 5  # no window, no sanitizer: must not raise
    run_query(db)
    assert sanitizer.violations == []


# -- DeterminismSanitizer -----------------------------------------------------


def test_identical_runs_hash_identically():
    sanitizer = DeterminismSanitizer()

    def factory():
        db = make_db()
        return repr(sorted(run_query(db).rows))

    report = sanitizer.check(factory, label="query-double-run")
    assert report.identical
    assert len(report.hashes) == 2


def test_planted_nondeterminism_is_caught():
    sanitizer = DeterminismSanitizer()
    counter = iter(range(10))

    def factory():
        return f"result-{next(counter)}"  # the planted defect

    with pytest.raises(SanitizerError, match="diverged"):
        sanitizer.check(factory, label="drifting")


def test_non_strict_reports_divergence():
    sanitizer = DeterminismSanitizer(strict=False)
    counter = iter(range(10))
    report = sanitizer.check(lambda: str(next(counter)), label="d")
    assert not report.identical


def test_hash_stream_canonicalizes_dicts_and_to_dict_objects():
    h = DeterminismSanitizer.hash_stream
    assert h([{"a": 1, "b": 2}]) == h([{"b": 2, "a": 1}])
    assert h("x") != h("y")
    assert h(b"x") == h(b"x")

    class Event:
        def __init__(self, kind):
            self.kind = kind

        def to_dict(self):
            return {"kind": self.kind}

    assert h([Event("scan")]) == h([Event("scan")])
    assert h([Event("scan")]) != h([Event("probe")])


# -- the CI double-run (armed via --sanitize=determinism) ---------------------


def test_trace_event_stream_is_deterministic(sanitizers_enabled):
    """Double-runs a traced workload and hashes the full event stream."""
    if "determinism" not in sanitizers_enabled:
        pytest.skip("enable with --sanitize=determinism (CI runs this)")

    def factory():
        db = make_db()
        db.tracer.enable()
        run_query(db, b=3)
        run_query(db, b=7)
        return db.tracer.events

    DeterminismSanitizer().check(factory, label="trace-events")

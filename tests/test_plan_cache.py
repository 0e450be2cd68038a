"""Plan-cache semantics: hits, catalog-version invalidation, LRU.

The satellite contract: ``create_index`` / ``drop_index`` / ``load_table``
must bump the catalog version and force a re-plan (observable through
cache stats *and* a changed PlanDecision trail), while same-text +
same-catalog lookups hit and replay measurement-identically.
"""

import pytest

from repro.database import Database
from repro.optimizer.plan_cache import (
    PlanCache,
    options_fingerprint,
)
from repro.optimizer.planner import AccessPin, PlannerOptions, PlanRecipe
from repro.storage.types import Schema
from repro.workloads.micro import build_micro_table


@pytest.fixture()
def micro_db():
    db = Database()
    build_micro_table(db, num_tuples=12_000, seed=3,
                      index_columns=("c1",))
    db.analyze()
    return db


RANGE_SQL = "SELECT * FROM micro WHERE c2 >= 0 AND c2 < 80"


# -- catalog-version bumps ----------------------------------------------------

def test_schema_and_stats_operations_bump_version(micro_db):
    v = micro_db.catalog_version
    micro_db.create_index("micro", "c2")
    assert micro_db.catalog_version == v + 1
    micro_db.drop_index("micro", "c2")
    assert micro_db.catalog_version == v + 2
    micro_db.load_table("extra", Schema.of_ints(["x"]), [(1,), (2,)])
    assert micro_db.catalog_version == v + 3
    micro_db.analyze("extra")
    assert micro_db.catalog_version == v + 4


def test_create_index_invalidates_and_changes_decision_trail(micro_db):
    session = micro_db.connect()
    stats = micro_db.plan_cache.stats

    before = session.run(RANGE_SQL, keep_rows=False)
    # c2 is unindexed in this fixture: the only viable path is a full
    # scan, and no anchor column is available.
    assert before.decisions[0].path == "full"
    assert before.decisions[0].column is None
    assert stats.misses == 1 and stats.hits == 0

    micro_db.create_index("micro", "c2")
    micro_db.analyze()  # fresh stats for the new index's column

    after = session.run(RANGE_SQL, keep_rows=False)
    # The entry was invalidated (not served stale) and the re-plan sees
    # the new index: the decision trail changes.
    assert stats.invalidations == 1
    assert stats.hits == 0
    assert after.decisions[0].column == "c2"
    assert after.decisions[0].path in ("index", "sort")
    assert after.decisions[0].path != before.decisions[0].path
    assert before.rows == after.rows == []


def test_drop_index_invalidates_cached_index_plan(micro_db):
    micro_db.create_index("micro", "c2")
    micro_db.analyze()
    session = micro_db.connect()
    stats = micro_db.plan_cache.stats

    indexed = session.run(RANGE_SQL, keep_rows=False)
    assert indexed.decisions[0].column == "c2"

    micro_db.drop_index("micro", "c2")
    invalidations0 = stats.invalidations
    replanned = session.run(RANGE_SQL, keep_rows=False)
    assert stats.invalidations == invalidations0 + 1
    assert replanned.decisions[0].path == "full"
    assert replanned.decisions[0].column is None
    assert replanned.row_count == indexed.row_count


def test_load_table_invalidates(micro_db):
    session = micro_db.connect()
    stats = micro_db.plan_cache.stats
    session.run(RANGE_SQL, keep_rows=False)
    micro_db.load_table("late", Schema.of_ints(["x"]), [(i,) for i in range(5)])
    session.run(RANGE_SQL, keep_rows=False)
    assert stats.invalidations == 1
    assert stats.hits == 0


# -- the negative case: same text + same catalog → hit ------------------------

def test_same_text_same_catalog_hits_measurement_identical(micro_db):
    session = micro_db.connect()
    stats = micro_db.plan_cache.stats
    miss = session.run("SELECT * FROM micro WHERE c2 < 4000")
    hit = session.run("SELECT * FROM micro WHERE c2 < 4000")
    assert (stats.misses, stats.hits, stats.invalidations) == (1, 1, 0)
    assert miss.rows == hit.rows
    assert miss.total_ms == hit.total_ms
    assert miss.io_ms == hit.io_ms
    assert miss.cpu_ms == hit.cpu_ms
    assert miss.disk.requests == hit.disk.requests
    assert miss.disk.bytes_read == hit.disk.bytes_read
    assert miss.plan.render() == hit.plan.render()
    # Whitespace/comment/case differences still hit (normalized keys).
    also_hit = session.run(
        "select  *  from micro -- note\n WHERE c2 < 4000"
    )
    assert stats.hits == 2
    assert also_hit.rows == miss.rows


def test_explain_and_repl_surface_stats(micro_db, capsys):
    session = micro_db.connect()
    session.run(RANGE_SQL, keep_rows=False)
    cur = session.execute("EXPLAIN " + RANGE_SQL)
    last = cur.fetchall()[-1][0]
    assert last.startswith("plan cache: miss (hits=")

    from repro.sql.repl import Repl
    import io
    out = io.StringIO()
    Repl(micro_db, out=out).run(io.StringIO("\\analyze\n").readlines())
    text = out.getvalue()
    assert "statistics refreshed" in text
    assert "plan cache:" in text and "invalidations=" in text


# -- the cache object itself --------------------------------------------------

def test_lru_eviction_and_capacity():
    cache = PlanCache(capacity=2)
    recipe = PlanRecipe(base=AccessPin("full", None))
    cache.store(("a", ()), recipe, 0)
    cache.store(("b", ()), recipe, 0)
    assert cache.lookup(("a", ()), 0) is recipe  # refresh 'a'
    cache.store(("c", ()), recipe, 0)            # evicts 'b'
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.lookup(("b", ()), 0) is None
    assert cache.lookup(("c", ()), 0) is recipe


def test_version_mismatch_counts_invalidation_and_miss():
    cache = PlanCache()
    recipe = PlanRecipe(base=AccessPin("index", "c2"))
    cache.store(("k", ()), recipe, 7)
    assert cache.lookup(("k", ()), 8) is None
    assert cache.stats.invalidations == 1
    assert cache.stats.misses == 1
    assert len(cache) == 0


def test_options_fingerprint_distinguishes_and_normalizes():
    default = options_fingerprint(None)
    assert default == options_fingerprint(PlannerOptions())
    smooth = options_fingerprint(PlannerOptions(enable_smooth=True))
    forced = options_fingerprint(PlannerOptions(force_path="full"))
    assert len({default, smooth, forced}) == 3

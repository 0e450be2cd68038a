"""Direct tests of the costing adapters the planner and advisor share."""

import pytest

from repro.database import Database
from repro.optimizer import costing
from repro.storage.disk import DiskProfile
from repro.storage.types import Schema


@pytest.fixture()
def costed_table():
    db = Database()
    table = db.load_table(
        "t", Schema.of_ints(["a", "b"]),
        ((i, i % 100) for i in range(50_000)),
    )
    db.create_index("t", "b")
    return db, table


def test_candidate_paths_full_only_without_index(costed_table):
    db, table = costed_table
    paths = costing.candidate_paths(
        table, db.config, db.profile, None, selectivity=0.5
    )
    assert [p.path for p in paths] == ["full"]


def test_candidate_paths_with_index(costed_table):
    db, table = costed_table
    paths = costing.candidate_paths(
        table, db.config, db.profile, "b", selectivity=0.01
    )
    assert {p.path for p in paths} == {"full", "index", "sort"}


def test_candidate_paths_assume_index(costed_table):
    db, table = costed_table
    paths = costing.candidate_paths(
        table, db.config, db.profile, "a", selectivity=0.01,
        assume_index=True,
    )
    assert {p.path for p in paths} >= {"index", "sort"}


def test_candidate_paths_smooth_flag(costed_table):
    db, table = costed_table
    paths = costing.candidate_paths(
        table, db.config, db.profile, "b", selectivity=0.01,
        enable_smooth=True,
    )
    assert "smooth" in {p.path for p in paths}


def test_full_scan_cost_independent_of_selectivity(costed_table):
    db, table = costed_table
    lo = costing.candidate_paths(table, db.config, db.profile, "b", 0.001)
    hi = costing.candidate_paths(table, db.config, db.profile, "b", 0.9)
    full_lo = next(p.cost for p in lo if p.path == "full")
    full_hi = next(p.cost for p in hi if p.path == "full")
    assert full_lo == full_hi


def test_order_requirement_penalizes_unordered_paths(costed_table):
    db, table = costed_table
    plain = costing.candidate_paths(table, db.config, db.profile, "b", 0.3)
    ordered = costing.candidate_paths(table, db.config, db.profile, "b",
                                      0.3, require_order=True)
    def cost(paths, name):
        return next(p.cost for p in paths if p.path == name)

    assert cost(ordered, "full") > cost(plain, "full")
    assert cost(ordered, "sort") > cost(plain, "sort")
    assert cost(ordered, "index") == cost(plain, "index")  # already ordered


def test_cheapest_path(costed_table):
    db, table = costed_table
    paths = costing.candidate_paths(table, db.config, db.profile, "b",
                                    0.9)
    assert costing.cheapest_path(paths).path == "full"
    paths = costing.candidate_paths(table, db.config, db.profile, "b",
                                    0.00001)
    assert costing.cheapest_path(paths).path in ("index", "sort")


def test_sort_cpu_cost_scaling():
    profile = DiskProfile.hdd()
    small = costing.sort_cpu_cost(1_000, profile, 1e-4)
    big = costing.sort_cpu_cost(100_000, profile, 1e-4)
    assert big > 100 * small  # superlinear (n log n)
    assert costing.sort_cpu_cost(1, profile, 1e-4) == 0.0


def test_hash_join_cost_counts_both_sides():
    profile = DiskProfile.hdd()
    base = costing.hash_join_cost(1_000, 1_000, profile, 1.5e-4)
    bigger = costing.hash_join_cost(2_000, 1_000, profile, 1.5e-4)
    assert bigger > base


def test_index_size_estimate(costed_table):
    db, table = costed_table
    size = costing.index_size_bytes(table, db.config, "b")
    # 50K entries x (ceil(4 x 1.2) + 8) bytes = 50K x 13.
    assert size == 50_000 * 13


def test_params_for_roundtrip(costed_table):
    db, table = costed_table
    p = costing.params_for(table, db.config, db.profile, "b", 0.25)
    assert p.num_tuples == table.row_count
    assert p.selectivity == 0.25
    assert p.rand_cost == db.profile.rand_cost

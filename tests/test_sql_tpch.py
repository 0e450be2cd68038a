"""SQL TPC-H queries are measurement-identical to their fluent twins.

The acceptance bar for the SQL front end: Q1, Q6 and Q14 written as SQL
text must lower to plans that charge the same simulated cost and produce
the same rows as the ``FLUENT_QUERIES`` definitions, in every Figure-1
execution mode.  Also covers the EXPLAIN rendering and the requirement
that a hint comment demonstrably changes the chosen access path.
"""

import pytest

from repro.experiments.fig1 import make_tuned_tpch
from repro.sql import compile_statement
from repro.workloads.tpch.queries import (
    FLUENT_QUERIES,
    SQL_QUERIES,
    mode_options,
)

MODES = ("original", "tuned", "smooth")


@pytest.fixture(scope="module")
def setup():
    return make_tuned_tpch(scale_factor=0.002)


def run_fluent(setup, name, mode):
    return setup.db.execute(
        FLUENT_QUERIES[name](setup.db), cold=True,
        options=mode_options(mode), catalog=setup.catalog,
    )


def run_text(setup, text, options=None, keep_rows=True):
    """Execute SQL text against the stale catalog (uncached)."""
    bound = compile_statement(setup.db, text)
    return setup.db.execute(
        bound.spec, cold=True, keep_rows=keep_rows,
        options=bound.planner_options(options), catalog=setup.catalog,
    )


def plan_text(setup, text, options=None):
    """The rendered plan of SQL text (``EXPLAIN`` optional)."""
    bound = compile_statement(setup.db, text)
    return setup.db.plan(bound.spec, options=bound.planner_options(options),
                         catalog=setup.catalog).render()


def run_sql(setup, name, mode):
    return run_text(setup, SQL_QUERIES[name], mode_options(mode))


@pytest.mark.parametrize("name", sorted(SQL_QUERIES))
@pytest.mark.parametrize("mode", MODES)
def test_sql_measurement_identical_to_fluent(setup, name, mode):
    fluent = run_fluent(setup, name, mode)
    sql = run_sql(setup, name, mode)
    assert sql.rows == fluent.rows                      # byte-identical
    assert sql.io_ms == fluent.io_ms
    assert sql.cpu_ms == fluent.cpu_ms
    assert sql.disk.requests == fluent.disk.requests
    assert sql.disk.bytes_read == fluent.disk.bytes_read
    # Same access-path decisions, in the same plan order.
    assert [d.path for d in sql.decisions] == \
        [d.path for d in fluent.decisions]


def test_sql_queries_cover_the_fluent_set():
    assert sorted(SQL_QUERIES) == sorted(FLUENT_QUERIES)


def test_explain_renders_estimated_and_actual(setup):
    text = plan_text(setup, "EXPLAIN " + SQL_QUERIES["Q6"],
                     mode_options("tuned"))
    assert "rows est=" in text and "act=?" in text
    # After execution the executed result's tree reports actuals.
    result = run_sql(setup, "Q6", "tuned")
    executed = result.explain()
    assert "act=?" not in executed.splitlines()[0]


def test_database_explain_accepts_plain_select(setup):
    text = plan_text(setup, SQL_QUERIES["Q1"])
    assert "HashAggregate" in text and "lineitem" in text


def test_hint_changes_chosen_access_path(setup):
    base = "SELECT count(*) AS n FROM lineitem WHERE l_quantity < 24"
    hinted = ("SELECT /*+ force_path(smooth) */ count(*) AS n "
              "FROM lineitem WHERE l_quantity < 24")
    plain = run_text(setup, base, keep_rows=False)
    smooth = run_text(setup, hinted, keep_rows=False)
    assert plain.decisions[0].path != "smooth"
    assert smooth.decisions[0].path == "smooth"
    assert smooth.row_count == plain.row_count
    assert "SmoothScan" in smooth.explain()


def test_no_inlj_hint_switches_join_method(setup):
    base = """
        SELECT count(*) AS n
        FROM lineitem
        JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate >= DATE '1995-09-01'
          AND l_shipdate < DATE '1995-10-01'
    """
    hinted = base.replace("SELECT", "SELECT /*+ no_inlj */", 1)
    plain = run_text(setup, base, keep_rows=False)
    no_inlj = run_text(setup, hinted, keep_rows=False)
    plain_paths = [d.path for d in plain.decisions]
    hinted_paths = [d.path for d in no_inlj.decisions]
    assert "inlj" in plain_paths          # tuned Q14 probes part via INLJ
    assert "inlj" not in hinted_paths
    assert "hash" in hinted_paths
    assert no_inlj.row_count == plain.row_count

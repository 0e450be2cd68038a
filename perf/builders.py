"""Database builders shared by the workloads, the probes and the server child.

Every builder returns ``(db, timings)``; the timings are the pieces of
``setup_s`` that the traced run reports as ``workloads.*`` metrics.  Table
contents are fixed (the engine's own generators with their default seeds):
the benchmark's ``--seed`` shapes the statements, never the data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.config import EngineConfig
from repro.database import Database
from repro.experiments.concurrency import CLASSIC_OPTIONS
from repro.experiments.fig1 import make_tuned_tpch
from repro.workloads.micro import VALUE_DOMAIN, build_micro_table

#: Serving configuration of ``serve_socket``: classic planner options,
#: sessions plan serially so going shard-parallel is admission's call.
SERVE_OPTIONS = replace(CLASSIC_OPTIONS, shard_parallel=False)
SLA_MULTIPLE = 2.0
SERVE_SHARDS = 4

SERVE_SQL = "SELECT c1, c2 FROM micro WHERE c2 >= :lo AND c2 < :hi"
SERVE_FORCED_SQL = ("SELECT /*+ force_path(index) */ c1, c2 FROM micro "
                    "WHERE c2 >= :lo AND c2 < :hi")
#: The plan cache is seeded at this selectivity, so wider replays run the
#: cached index recipe drifted out of its optimum (the paper's scenario).
SERVE_SEED_HI = round(0.0005 * VALUE_DOMAIN)


@dataclass(frozen=True)
class Sizes:
    """Data sizes of one benchmark mode."""

    micro_rows: int       # scan_sweep table (pool = 1/8 of it: cold misses)
    lookup_rows: int      # point_lookup table (pool holds all of it)
    serve_rows: int       # serve_socket table, sharded SERVE_SHARDS ways
    tpch_sf: float
    # Statements per pass, sized so that a pass takes 1-2 s at full size.
    sweep_repeats: int    # repetitions of the 14-point grid
    lookup_statements: int
    tpch_rounds: int      # rounds of the 9 (query, mode) statements
    serve_statements: int  # per connection


FULL = Sizes(micro_rows=240_000, lookup_rows=60_000, serve_rows=60_000,
             tpch_sf=0.01, sweep_repeats=4, lookup_statements=4000,
             tpch_rounds=10, serve_statements=200)
SMOKE = Sizes(micro_rows=12_000, lookup_rows=12_000, serve_rows=12_000,
              tpch_sf=0.002, sweep_repeats=1, lookup_statements=120,
              tpch_rounds=1, serve_statements=30)


def build_micro_db(rows: int, pool_pages: int | None = None):
    """The micro table with its indexes, analyzed.

    ``pool_pages`` pins the buffer pool; by default the engine sizes it to
    1/8 of the heap, so a scan of 20% or more overflows it.
    """
    config = None if pool_pages is None \
        else EngineConfig(buffer_pool_pages=pool_pages)
    t0 = time.perf_counter()
    db = Database(config=config)
    build_micro_table(db, rows)
    t1 = time.perf_counter()
    db.analyze()
    t2 = time.perf_counter()
    return db, {"micro_build_s": t1 - t0, "analyze_s": t2 - t1}


def build_serving_db(rows: int):
    """The sharded micro table with the serving plan cached at 0.05%."""
    t0 = time.perf_counter()
    db = Database()
    build_micro_table(db, rows)
    t1 = time.perf_counter()
    db.shard_table("micro", SERVE_SHARDS)
    t2 = time.perf_counter()
    db.analyze()
    t3 = time.perf_counter()
    conn = db.connect(options=SERVE_OPTIONS, cold=False)
    conn.prepare(SERVE_SQL).run({"lo": 0, "hi": SERVE_SEED_HI}, cold=True,
                                keep_rows=False)
    conn.close()
    return db, {"micro_build_s": t1 - t0, "shard_s": t2 - t1,
                "analyze_s": t3 - t2}


def build_tpch_db(scale_factor: float):
    """Tuned TPC-H whose own catalog is the deliberately stale one."""
    t0 = time.perf_counter()
    setup = make_tuned_tpch(scale_factor=scale_factor)
    setup.db.use_catalog(setup.catalog)
    return setup.db, {"tpch_build_s": time.perf_counter() - t0}

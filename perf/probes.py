"""Layer probes: each engine layer timed alone through its public functions.

These do not depend on the workload being traced; they are the per-layer
numbers an optimisation of one layer should move first.  Every probe
reports the median of a few repetitions.
"""

from __future__ import annotations

import numpy as np

from harness import median_ms, median_us, now, timed
from inproc import run_cursor
from repro.experiments.common import access_path_plan
from repro.optimizer.plan_cache import PlanCache, options_fingerprint
from repro.optimizer.planner import Planner, PlannerOptions
from repro.sql import Binder, parse, tokenize
from repro.storage.chunk import Chunk
from repro.workloads.micro import VALUE_DOMAIN, selectivity_predicate
from repro.workloads.tpch.queries import SQL_QUERIES, mode_options
from workloads import PointLookup, ScanSweep

#: A microsecond-scale call is repeated this many times per repetition of
#: a millisecond-scale one.
CALLS_PER_REPEAT = 100


def drain_ms(make_root, db, repeats: int) -> float:
    """Median wall ms to pull every batch of a fresh operator tree, cold.

    One untimed drain goes first: the heap and the index build their
    columnar caches on first touch, which no statement after the first pays.
    """
    samples = []
    for _ in range(repeats + 1):
        root = make_root()
        ctx = db.cold_run()
        t0 = now()
        for _batch in root.batches(ctx):
            pass
        samples.append(now() - t0)
    return median_ms(samples[1:])


def sql_and_optimizer(db, calls: int) -> dict:
    text = PointLookup.SQL.format(lo=1234, hi=1290)
    prepared = PointLookup.SQL.format(lo=":lo", hi=":hi")
    params = {"lo": 1234, "hi": 1290}
    tree = parse(text)
    bound = Binder(db, prepared).bind(parse(prepared))
    spec = bound.bind_params(params)
    planner = Planner(db, db.catalog, None)
    recipe = planner.plan_query(spec).recipe
    cache = PlanCache()
    key = (bound.normalized, options_fingerprint(None))
    cache.store(key, recipe, 0)
    conn = db.connect(cold=False)
    statement = conn.prepare(prepared)

    def execute() -> float:
        cursor = conn.cursor()
        t0 = now()
        cursor.execute(statement, params)
        elapsed = now() - t0
        cursor.close()
        return elapsed

    out = {
        "sql.tokenize_us": median_us(timed(lambda: tokenize(text), calls)),
        "sql.parse_us": median_us(timed(lambda: parse(text), calls)),
        "sql.bind_us": median_us(
            timed(lambda: Binder(db, text).bind(tree), calls)),
        "sql.bind_params_us": median_us(
            timed(lambda: bound.bind_params(params), calls)),
        "optimizer.plan_miss_us": median_us(
            timed(lambda: planner.plan_query(spec), calls)),
        "optimizer.plan_hit_us": median_us(
            timed(lambda: planner.plan_query(spec, recipe=recipe), calls)),
        "optimizer.cache_lookup_us": median_us(
            timed(lambda: cache.lookup(key, 0), calls)),
        "api.execute_us": median_us([execute() for _ in range(calls)]),
    }
    conn.close()
    return out


def access_paths(db, repeats: int) -> dict:
    """The fig5 grid drained as raw operator trees, through the cursor, and
    through the cursor with the engine's tracer on."""
    table = db.table("micro")
    out = {}
    raw_ms = 0.0
    for path, pcts in ScanSweep.PATHS.items():
        layer = "core" if path == "smooth" else "exec"
        for pct in pcts:
            name = f"{layer}.{path}.{pct:g}pct_ms"
            out[name] = drain_ms(
                lambda: access_path_plan(path, table, pct / 100), db, repeats)
            raw_ms += out[name]
    out["exec.order_by.20pct_ms"] = drain_ms(
        lambda: access_path_plan("full", table, 0.2, order_by=True),
        db, repeats)

    conn = db.connect(cold=True)

    def cursor_grid() -> float:
        total = 0.0
        for path, pcts in ScanSweep.PATHS.items():
            for pct in pcts:
                total += run_cursor(
                    conn, ScanSweep.SQL.format(path=path),
                    {"hi": round(pct / 100 * VALUE_DOMAIN)}).wall_s
        return total

    cursor_grid()       # warm-up: fills the plan cache
    plain, traced = [], []
    for _ in range(repeats):    # alternating, so that drift hits both alike
        plain.append(cursor_grid())
        db.tracer.enable()
        try:
            traced.append(cursor_grid())
        finally:
            db.tracer.disable()
            db.tracer.drain()
    conn.close()
    out["api.rowify_share"] = 1.0 - raw_ms / median_ms(plain)
    out["telemetry.tracer_overhead_ratio"] = \
        median_ms(traced) / median_ms(plain)
    return out


def exchange(db, repeats: int) -> dict:
    """A 20% scan of the sharded table: 4-shard exchange plan vs serial."""
    query = db.query("micro").where(selectivity_predicate(0.2))

    def plan_ms(parallel: bool) -> float:
        options = PlannerOptions(enable_sort_scan=False,
                                 shard_parallel=parallel)

        def root():
            planned = db.plan(query, options=options)
            if ("Exchange" in planned.render()) != parallel:
                raise RuntimeError("planner ignored shard_parallel")
            return planned.root

        return drain_ms(root, db, repeats)

    parallel, serial = plan_ms(True), plan_ms(False)
    return {"exec.exchange.20pct_ms": parallel,
            "exec.exchange_vs_serial_ratio": parallel / serial}


def tpch_plans(db, repeats: int) -> dict:
    out = {}
    for query, sql in SQL_QUERIES.items():
        bound = Binder(db, sql).bind(parse(sql))
        spec = bound.bind_params(None)
        for mode in ("tuned", "smooth"):
            planner = Planner(db, db.catalog,
                              bound.planner_options(mode_options(mode)))
            out[f"exec.{query.lower()}.{mode}_ms"] = drain_ms(
                lambda p=planner: p.plan_query(spec).root, db, repeats)
    return out


def storage_and_index(db, calls: int) -> dict:
    table = db.table("micro")
    names = table.schema.column_names
    rng = np.random.default_rng(0)
    columns = [np.arange(1024, dtype=np.int64),
               rng.integers(0, VALUE_DOMAIN, 1024, dtype=np.int64)]
    mask = columns[1] < VALUE_DOMAIN // 5

    def on_fresh_chunk(call) -> list[float]:
        samples = []
        for _ in range(calls):
            # A chunk caches its rows, so each call gets a new one.
            chunk = Chunk.from_columns(("c1", "c2"), columns)
            t0 = now()
            call(chunk)
            samples.append(now() - t0)
        return samples

    index = table.indexes["c2"]
    hi = VALUE_DOMAIN // 5

    def scan_index() -> float:
        ctx = db.cold_run()
        t0 = now()
        entries = sum(len(keys) for keys, _tids
                      in index.scan_batches(ctx, 0, hi))
        return (now() - t0) / (entries / 1000)

    return {
        # Steady state: scans find the 16-page run already concatenated.
        "storage.run_chunk_us": median_us(
            timed(lambda: table.heap.run_chunk(0, 16, names), calls)),
        "storage.chunk_to_rows_us": median_us(
            on_fresh_chunk(lambda chunk: chunk.to_rows())),
        "storage.chunk_filter_us": median_us(
            on_fresh_chunk(lambda chunk: chunk.filter(mask))),
        "index.range_positions_us": median_us(
            timed(lambda: index.range_positions(0, hi), calls)),
        "index.scan_batches_us_per_kentry": median_us(
            [scan_index() for _ in range(5)]),
    }


def engine_probes(micro_db, serving_db, tpch_db, repeats: int) -> dict:
    calls = CALLS_PER_REPEAT * repeats
    return {
        **sql_and_optimizer(micro_db, calls),
        **access_paths(micro_db, repeats),
        **exchange(serving_db, repeats),
        **tpch_plans(tpch_db, repeats),
        **storage_and_index(micro_db, calls),
    }

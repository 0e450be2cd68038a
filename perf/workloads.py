"""The three in-process workloads: scan_sweep, point_lookup, tpch_sql.

A workload builds its database (timed: ``setup_s``), opens its connections
and oracle (untimed), turns a seed into a fixed schedule of statements, and
runs passes over that schedule as one closed-loop client: the next statement
starts when the previous one's last row has been fetched and checked.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

from builders import Sizes, build_micro_db, build_tpch_db
from harness import EngineCounts, PassResult, Trace
from inproc import run_cursor, run_staged
from oracle import MicroOracle, q6_revenue, rows_close
from repro.sql import compile_statement
from repro.workloads.micro import VALUE_DOMAIN
from repro.workloads.tpch.queries import SQL_QUERIES, mode_options
from repro.workloads.tpch.schema import date


def micro_oracle(conn) -> MicroOracle:
    return MicroOracle(conn.execute("SELECT c1, c2 FROM micro").fetchall())


class InprocWorkload:
    """One connection-at-a-time client over an in-process database."""

    name = ""
    why = ""

    def build(self, sizes: Sizes):
        """The timed part of set-up; returns ``(db, timings)``."""
        raise NotImplementedError

    def open(self, db, sizes: Sizes):
        """Untimed: connections, prepared statements, the oracle."""
        raise NotImplementedError

    def schedule(self, seed: int, sizes: Sizes) -> list:
        raise NotImplementedError

    def statement(self, state, item):
        """``(connection, operation, bound, params, check)`` for one
        schedule item: ``operation`` is SQL text or a prepared statement,
        ``bound`` its compiled form when it was prepared, and
        ``check(rows)`` returns None or the reason the rows are wrong."""
        raise NotImplementedError

    def run_pass(self, state, schedule: list,
                 trace: Trace | None = None) -> PassResult:
        result = PassResult()
        engine = EngineCounts(state.db)
        for number, item in enumerate(schedule):
            conn, operation, bound, params, check = self.statement(state, item)
            if trace is None:
                run = run_cursor(conn, operation, params)
            else:
                run = run_staged(conn, getattr(operation, "sql", operation),
                                 bound, params, trace, number)
            result.add(run.wall_s, run.cpu_s, len(run.rows), check(run.rows))
            result.count_ledger(run.ledger)
            result.count("fetch_calls", run.fetch_calls)
        result.close_lane()
        engine.into(result)
        return result

    def discard(self, db) -> None:
        """Drop a built database that will not be opened."""

    def extra_rss_kb(self, state) -> int:
        """Peak RSS of processes other than this one."""
        return 0

    def close(self, state) -> None:
        for conn in state.conns:
            conn.close()


class ScanSweep(InprocWorkload):
    name = "scan_sweep"
    why = ("fig5 on the wall clock: each access path at 0.1-100% selectivity, "
           "cold, pool 1/8 of the table; exec/core/storage/index and the "
           "chunk-to-row boundary do the work")

    PATHS = {"full": (0.1, 1, 20, 100), "sort": (0.1, 1, 20, 100),
             "smooth": (0.1, 1, 20, 100), "index": (0.1, 1)}
    SQL = ("SELECT /*+ force_path({path}) */ c1, c2 FROM micro "
           "WHERE c2 >= 0 AND c2 < :hi")

    def build(self, sizes):
        return build_micro_db(sizes.micro_rows)

    def open(self, db, sizes):
        conn = db.connect(cold=True)
        return SimpleNamespace(db=db, conns=[conn], conn=conn,
                               oracle=micro_oracle(conn))

    def schedule(self, seed, sizes):
        """The grid in a fixed cyclic order; the seed picks where it starts.

        Not shuffled: a 100% scan runs a fifth faster right after another
        large result than after a small one (the allocator still holds the
        freed row lists), so a shuffled order made ``p95_ms`` a property of
        the seed.
        """
        grid = [(path, round(pct / 100 * VALUE_DOMAIN))
                for path, pcts in self.PATHS.items() for pct in pcts]
        start = seed % len(grid)
        return (grid[start:] + grid[:start]) * sizes.sweep_repeats

    def statement(self, state, item):
        path, hi = item
        return (state.conn, self.SQL.format(path=path), None, {"hi": hi},
                lambda rows: state.oracle.check_range(rows, 0, hi))


class PointLookup(InprocWorkload):
    name = "point_lookup"
    why = ("20-row lookups on a warm pool, 3 prepared re-executions (plan-cache "
           "hit) to 1 ad-hoc text out of 1024 (miss: lex, parse, bind, plan); "
           "sql/optimizer/api.execute do the work, exec little")

    #: Holds the whole table and both indexes: the working set fits.
    POOL_PAGES = 4096
    LIMIT = 20
    TEXTS = 1024            # 8x the 128-entry plan cache
    SQL = ("SELECT c1, c2 FROM micro WHERE c2 >= {lo} AND c2 < {hi} "
           f"ORDER BY c2 LIMIT {LIMIT}")

    def build(self, sizes):
        return build_micro_db(sizes.lookup_rows, pool_pages=self.POOL_PAGES)

    def open(self, db, sizes):
        conn = db.connect(cold=False)
        sql = self.SQL.format(lo=":lo", hi=":hi")
        return SimpleNamespace(db=db, conns=[conn], conn=conn,
                               prepared=conn.prepare(sql),
                               bound=compile_statement(db, sql),
                               oracle=micro_oracle(db.connect(cold=True)))

    @staticmethod
    def _range(rng) -> tuple[int, int]:
        lo = rng.randrange(VALUE_DOMAIN - 100)
        return lo, lo + rng.randrange(20, 80)

    def schedule(self, seed, sizes):
        rng = random.Random(seed)
        texts = [self._range(rng) for _ in range(self.TEXTS)]
        items = []
        for i in range(sizes.lookup_statements):
            if i % 4 == 3:
                lo, hi = rng.choice(texts)
                items.append((self.SQL.format(lo=lo, hi=hi), lo, hi))
            else:
                items.append((None, *self._range(rng)))
        rng.shuffle(items)
        return items

    def statement(self, state, item):
        text, lo, hi = item

        def check(rows):
            return state.oracle.check_top(rows, lo, hi, self.LIMIT)

        if text is None:
            return (state.conn, state.prepared, state.bound,
                    {"lo": lo, "hi": hi}, check)
        return state.conn, text, None, None, check


class TpchSql(InprocWorkload):
    name = "tpch_sql"
    why = ("Q1/Q6/Q14 from SQL text on stale-statistics TPC-H in original, "
           "tuned and smooth mode: expressions, hash aggregation, hash join and "
           "INLJ, CHAR columns; 1-4 result rows, so nothing to rowify")

    #: Three modes make nine kinds of statement, an odd number, so that the
    #: median statement lies inside one kind and not between two; `original`
    #: (no index paths) is also the only place a hash join runs.
    MODES = ("original", "tuned", "smooth")

    def build(self, sizes):
        return build_tpch_db(sizes.tpch_sf)

    def open(self, db, sizes):
        conns = {mode: db.connect(options=mode_options(mode), cold=True)
                 for mode in self.MODES}
        lineitem = conns["original"].execute(
            "SELECT l_shipdate, l_discount, l_quantity, l_extendedprice "
            "FROM lineitem").fetchall()
        return SimpleNamespace(db=db, conns=list(conns.values()),
                               by_mode=conns, reference={},
                               q6=q6_revenue(lineitem, date))

    def schedule(self, seed, sizes):
        rng = random.Random(seed)
        items = []
        for _ in range(sizes.tpch_rounds):
            one_round = [(query, mode) for query in SQL_QUERIES
                         for mode in self.MODES]
            rng.shuffle(one_round)
            items += one_round
        return items

    def statement(self, state, item):
        query, mode = item

        def check(rows):
            # Whichever mode answers first is the reference for the others.
            reference = state.reference.setdefault(query, rows)
            if not rows_close(rows, reference):
                return f"{query}/{mode}: rows differ from another mode's"
            if query == "Q6" and not math.isclose(rows[0][0], state.q6,
                                                  rel_tol=1e-9):
                return f"Q6/{mode}: revenue {rows[0][0]}, NumPy {state.q6}"
            return None

        return state.by_mode[mode], SQL_QUERIES[query], None, None, check

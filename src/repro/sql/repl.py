"""An interactive SQL shell over a loaded workload.

Run with ``python -m repro.sql``.  By default it loads the paper's
micro-benchmark table (indexes on ``c1``/``c2``) and collects statistics;
``--tpch SF`` loads the tuned TPC-H-lite setup of Figures 1/4 instead —
stale statistics, advisor indexes and all, so the estimation traps are
live at the prompt.

Statements end with ``;``.  ``EXPLAIN SELECT ...`` prints the plan tree
without executing; plain selects print an aligned result table plus the
measured simulated time and I/O.  Meta commands start with a backslash:

    \\tables            list tables with row/page counts
    \\schema <table>    show a table's columns and indexes
    \\mode <m>          planner mode: original | tuned | smooth
    \\analyze           refresh statistics (invalidates cached plans),
                       print plan-cache counters and the last
                       statement's per-query cost ledger
    \\clients <n>       replay the last statement from N interleaved
                       cursors (deterministic cooperative scheduling)
    \\shards <n>        replay the last statement with its base table
                       partitioned N ways (per-shard ledger breakdown;
                       the partitioning is dropped again afterwards)
    \\metrics           telemetry metrics in deterministic text form
                       (tracing is on for the whole shell session)
    \\help              this text
    \\quit              exit (also: \\q, EOF)

The prompt is suppressed when stdin is not a TTY, so scripted sessions
(CI pipes a transcript through the REPL) produce clean output.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Iterable

from repro.database import Database
from repro.errors import ReproError
from repro.optimizer.planner import PlannerOptions

_BANNER = (
    "repro SQL shell — statements end with ';', \\help for help, "
    "\\q to quit"
)
_HELP = """
    \\tables            list tables with row/page counts
    \\schema <table>    show a table's columns and indexes
    \\mode <m>          planner mode: original | tuned | smooth
    \\analyze           refresh statistics (invalidates cached plans),
                       print plan-cache counters and the last
                       statement's per-query cost ledger
    \\clients <n>       replay the last statement from N interleaved
                       cursors (deterministic cooperative scheduling)
    \\shards <n>        replay the last statement with its base table
                       partitioned N ways (per-shard ledger breakdown;
                       the partitioning is dropped again afterwards)
    \\metrics           telemetry metrics in deterministic text form
                       (tracing is on for the whole shell session)
    \\help              this text
    \\quit              exit (also: \\q, EOF)
"""

#: Cap on rows printed per result; counts are always exact.
DISPLAY_ROWS = 20


class Repl:
    """One shell session bound to one database."""

    def __init__(self, db: Database, out: IO[str] | None = None,
                 mode: str = "tuned"):
        self.db = db
        # The shell runs traced: every statement feeds the metrics
        # registry that \metrics prints.  Tracing charges no simulated
        # cost, so printed timings are unaffected.
        db.tracer.enable()
        # One session for the whole shell: repeated statements hit the
        # plan cache (\analyze reports its counters).
        self.conn = db.connect()
        # Bound once, at construction — late enough for harnesses that
        # swap sys.stdout before building the shell (capsys); pass
        # ``out`` explicitly to redirect an already-built shell.
        self.out = out if out is not None else sys.stdout
        self.mode = mode
        # The last successfully *executed* statement (EXPLAINs run
        # nothing): its result feeds \analyze's per-query ledger and
        # its text is what \clients replays concurrently.
        self._last_sql: str | None = None
        self._last_result = None

    # -- top level -----------------------------------------------------------

    def run(self, lines: Iterable[str], interactive: bool = False) -> None:
        """Consume input lines until EOF or ``\\quit``."""
        self._print(_BANNER)
        buffer: list[str] = []
        if interactive:
            self._prompt(buffer)
        for line in lines:
            stripped = line.strip()
            if not buffer and not stripped:
                # Stray blank lines must not open a statement buffer, or
                # the next meta command would be swallowed as SQL text.
                if interactive:
                    self._prompt(buffer)
                continue
            if not buffer and stripped.startswith(("\\", ".")):
                if not self._meta(stripped.lstrip("\\.")):
                    return
                if interactive:
                    self._prompt(buffer)
                continue
            # Lines keep their own newlines, so plain concatenation
            # preserves the user's line numbering in error positions.
            buffer.append(line if line.endswith("\n") else line + "\n")
            if _statement_complete("".join(buffer)):
                self._execute("".join(buffer))
                buffer = []
            if interactive:
                self._prompt(buffer)
        if buffer and "".join(buffer).strip():
            self._execute("".join(buffer))

    # -- pieces --------------------------------------------------------------

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    def _prompt(self, buffer: list[str]) -> None:
        prompt = "   ...> " if buffer else "sql> "
        self.out.write(prompt)
        self.out.flush()

    def _options(self) -> PlannerOptions:
        from repro.workloads.tpch.queries import mode_options
        return mode_options(self.mode)

    def _meta(self, command: str) -> bool:
        """Handle one meta command; False means "exit the shell"."""
        parts = command.split()
        name = parts[0].lower() if parts else ""
        if name in ("q", "quit", "exit"):
            return False
        if name == "help":
            self._print("Meta commands:" + _HELP.rstrip())
        elif name == "tables":
            for table in sorted(self.db.tables.values(),
                                key=lambda t: t.name):
                indexes = ", ".join(table.indexes) or "-"
                self._print(
                    f"{table.name:12} {table.row_count:>9} rows "
                    f"{table.num_pages:>7} pages  indexes: {indexes}"
                )
        elif name == "schema" and len(parts) == 2:
            try:
                table = self.db.table(parts[1])
            except ReproError as exc:
                self._print(f"error: {exc}")
                return True
            for column in table.schema.columns:
                marker = "  [indexed]" if column.name in table.indexes else ""
                self._print(f"{column.name:20} {column.ctype.value}{marker}")
        elif name == "mode" and len(parts) == 2:
            if parts[1] not in ("original", "tuned", "smooth"):
                self._print("error: mode must be original, tuned or smooth")
            else:
                self.mode = parts[1]
                self._print(f"planner mode: {self.mode}")
        elif name == "analyze":
            self.db.analyze()
            self._print("statistics refreshed")
            # Refreshing statistics bumps the catalog version: cached
            # plans are now stale and will re-plan on next use.  Show
            # the cache so the hit/miss/invalidation story is visible.
            self._print(self.db.plan_cache.describe())
            # The *per-query* ledger of the last statement — what that
            # one execution was charged, not the engine's global
            # totals (which fold every query of the session together).
            if self._last_result is not None:
                run = self._last_result.run
                self._print(
                    f"last query ledger: io={run.io_ms / 1000:.3f}s "
                    f"cpu={run.cpu_ms / 1000:.3f}s | "
                    f"{run.disk.pages_read} pages read "
                    f"({run.disk.seq_pages} seq, {run.disk.rand_pages} "
                    f"rand), {run.disk.pages_written} written | "
                    f"buffer {run.buffer_hits} hits / "
                    f"{run.buffer_misses} misses"
                )
        elif name == "clients" and len(parts) == 2:
            self._clients(parts[1])
        elif name == "shards" and len(parts) == 2:
            self._shards(parts[1])
        elif name == "metrics":
            # One source of truth: the plan cache's structured stats
            # become gauges, same as the server's stats frame.
            metrics = self.db.tracer.metrics
            for key, value in self.db.plan_cache.stats_dict().items():
                metrics.gauge(f"plan_cache_{key}").set(value)
            self._print(metrics.exposition())
        else:
            self._print(f"error: unknown command \\{command} "
                        "(\\help lists commands)")
        return True

    def _clients(self, arg: str) -> None:
        """The ``\\clients N`` smoke meta: concurrent replay."""
        from repro.exec.scheduler import CooperativeScheduler
        try:
            n = int(arg)
        except ValueError:
            self._print("error: \\clients takes a client count")
            return
        if not 1 <= n <= 32:
            self._print("error: client count must be between 1 and 32")
            return
        if self._last_sql is None:
            self._print("error: no statement to replay yet "
                        "(run a SELECT first)")
            return
        # A warm connection: concurrent cursors must not cold-reset the
        # shared substrate under each other.  One cold start up front
        # levels the field (the shell's own session has no live runs).
        conn = self.db.connect(options=self._options(), cold=False)
        scheduler = CooperativeScheduler(self.db)
        for i in range(n):
            scheduler.client(f"c{i + 1}").add_query(
                "replay", lambda c=conn: c.cursor().execute(self._last_sql))
        report = scheduler.run(cold=True)
        for record in report.records:
            ledger = record.ledger
            self._print(
                f"{record.client:>4}  {record.rows:>8} rows  "
                f"latency {record.latency_ms / 1000:.3f}s  "
                f"io {ledger.io_ms / 1000:.3f}s  "
                f"cpu {ledger.cpu_ms / 1000:.3f}s  "
                f"{ledger.disk.pages_read} pages  "
                f"{ledger.buffer_hits}h/{ledger.buffer_misses}m"
            )
        conserved = report.total_ledger() == self.db.runtime.totals()
        self._print(
            f"({n} interleaved clients, p50 {report.p50_ms / 1000:.3f}s, "
            f"p99 {report.p99_ms / 1000:.3f}s, "
            f"{report.throughput_qps:.1f} queries/s simulated; "
            "ledgers sum to runtime totals: "
            f"{'ok' if conserved else 'VIOLATED'})"
        )

    def _shards(self, arg: str) -> None:
        """The ``\\shards N`` meta: shard-parallel replay.

        Partitions the last statement's base table N ways, re-runs the
        statement with shard-parallel planning enabled, prints each
        shard's conserved ledger slice, then drops the partitioning —
        the base table itself is never modified, so the shell's
        catalog is exactly as before.
        """
        from dataclasses import replace

        from repro.exec.exchange import Exchange
        from repro.runtime import CostLedger
        try:
            n = int(arg)
        except ValueError:
            self._print("error: \\shards takes a shard count")
            return
        if not 2 <= n <= 32:
            self._print("error: shard count must be between 2 and 32")
            return
        if self._last_sql is None or self._last_result is None:
            self._print("error: no statement to replay yet "
                        "(run a SELECT first)")
            return
        table = self._last_result.plan.spec.table
        options = replace(self._options(), shard_parallel=True,
                          force_path=None)
        try:
            self.db.shard_table(table, n)
            conn = self.db.connect(options=options, cold=False)
            result = conn.run(self._last_sql, cold=True, keep_rows=False)
            exchange = next(
                (op for op in result.plan.operators()
                 if isinstance(op, Exchange)), None)
            if exchange is None:
                self._print(
                    f"(planner kept the serial plan — going wide loses "
                    f"on the model for this statement; "
                    f"{result.row_count} rows, "
                    f"{result.total_seconds:.3f} s simulated)"
                )
                return
            total = CostLedger()
            for i, ledger in enumerate(exchange.shard_ledgers):
                total.add(ledger)
                self._print(
                    f"{table}#{i:<3}  io {ledger.io_ms / 1000:.3f}s  "
                    f"cpu {ledger.cpu_ms / 1000:.3f}s  "
                    f"{ledger.disk.pages_read} pages  "
                    f"{ledger.buffer_hits}h/{ledger.buffer_misses}m"
                )
            self._print(
                f"({n} shards, {result.row_count} rows, "
                f"{result.total_seconds:.3f} s simulated completion; "
                "shard ledgers sum to the query ledger: "
                f"{'ok' if total == result.run.ledger else 'VIOLATED'})"
            )
        except ReproError as exc:
            self._print(f"error: {exc}")
        finally:
            if self.db.shard_set(table) is not None:
                self.db.unshard_table(table)

    def _execute(self, text: str) -> None:
        if not text.strip().rstrip(";").strip():
            return
        try:
            result = self.conn.run(text, options=self._options())
        except ReproError as exc:
            self._print(f"error: {exc}")
            return
        except Exception as exc:  # the shell must survive any statement
            self._print(f"error: {type(exc).__name__}: {exc}")
            return
        if isinstance(result, str):  # EXPLAIN
            self._print(result)
            return
        self._last_sql = text
        self._last_result = result
        self._print_table(result)
        self._print(
            f"({result.row_count} row"
            f"{'' if result.row_count == 1 else 's'}, "
            f"{result.total_seconds:.3f} s simulated, "
            f"{result.disk.requests} I/O requests, "
            f"{result.disk.bytes_read / 1e6:.1f} MB read)"
        )

    def _print_table(self, result) -> None:
        names = list(result.plan.root.schema.column_names)
        shown = result.rows[:DISPLAY_ROWS]
        cells = [[_fmt(v) for v in row] for row in shown]
        widths = [
            max(len(name), *(len(row[i]) for row in cells), 1)
            if cells else len(name)
            for i, name in enumerate(names)
        ]
        self._print(" | ".join(
            n.ljust(w) for n, w in zip(names, widths, strict=False)))
        self._print("-+-".join("-" * w for w in widths))
        for row in cells:
            self._print(" | ".join(
                c.rjust(w) for c, w in zip(row, widths, strict=False)))
        if len(result.rows) > DISPLAY_ROWS:
            self._print(f"... ({len(result.rows) - DISPLAY_ROWS} more)")


def _statement_complete(text: str) -> bool:
    """True when the buffered text ends a statement with ``;``.

    Quote- and comment-aware, so a ``;`` at the end of a line *inside*
    a multi-line string literal or comment does not split the statement
    early (the lexer would then see a truncated, invalid text).
    """
    in_string = False
    last_significant = ""
    i = 0
    while i < len(text):
        ch = text[i]
        if in_string:
            if ch == "'":
                if text[i + 1:i + 2] == "'":  # '' escapes a quote
                    i += 2
                    continue
                in_string = False
            i += 1
            continue
        if ch == "'":
            in_string = True
            i += 1
            continue
        if ch == "-" and text[i + 1:i + 2] == "-":
            newline = text.find("\n", i)
            if newline == -1:
                break
            i = newline + 1
            continue
        if ch == "/" and text[i + 1:i + 2] == "*":
            end = text.find("*/", i + 2)
            if end == -1:
                return False  # comment still open
            i = end + 2
            continue
        if not ch.isspace():
            last_significant = ch
        i += 1
    return not in_string and last_significant == ";"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    if value is None:
        return "NULL"
    return str(value)


def load_database(args: argparse.Namespace) -> tuple[Database, str]:
    """Build the shell's database per CLI flags; returns (db, mode)."""
    if args.tpch is not None:
        from repro.experiments.fig1 import make_tuned_tpch
        setup = make_tuned_tpch(scale_factor=args.tpch)
        # The tuned setup's statistics are deliberately stale — install
        # them as the database's own catalog so the traps stay live.
        setup.db.use_catalog(setup.catalog)
        return setup.db, "tuned"
    from repro.workloads import build_micro_table
    db = Database()
    build_micro_table(db, num_tuples=args.rows)
    db.analyze()
    return db, "tuned"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sql",
        description="Interactive SQL shell over a simulated workload.",
    )
    parser.add_argument("--rows", type=int, default=60_000,
                        help="micro-table size (default 60000)")
    parser.add_argument("--tpch", type=float, default=None, metavar="SF",
                        help="load tuned TPC-H-lite at this scale factor "
                             "instead of the micro table")
    args = parser.parse_args(argv)
    db, mode = load_database(args)
    repl = Repl(db, mode=mode)
    repl.run(sys.stdin, interactive=sys.stdin.isatty())
    return 0

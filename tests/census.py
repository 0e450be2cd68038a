"""Reachability census: which ``src/repro`` functions the paper's figures,
the wall-clock benchmark and the examples actually enter.

    PYTHONPATH=src python tests/census.py --report census.json

One process, one profile hook (``sys.setprofile`` and
``threading.setprofile``), three drives:

* ``pytest benchmarks --benchmark-disable`` (pytest-benchmark turns
  profiling off inside timed bodies, so the flag is required);
* ``perf/run.py --smoke --trace`` through ``runpy`` (its untraced runs and
  the socket server run in child processes the hook does not see);
* every ``examples/*.py`` through ``runpy``.

Every ``def`` in ``src/repro`` (module functions and methods, not nested
closures; abstract methods and bodiless stubs have no code to enter and
are not counted) that no drive entered is *unreached*, unless :data:`SURFACE`
names it, its class or its module with a reason.  A surface entry is
*stale* if the drive now enters everything under it, or if it names
nothing that exists.  The report is ``{"unreached": [...],
"stale_surface": [...]}`` plus counts; the script exits 1 unless both
lists are empty, so code that nothing runs is deleted or named here, and
this list cannot outlive what it names.  This file is not collected by
pytest (its name does not start with ``test_``); CI runs it as a job of
its own.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CHILD = ("a command-line entry point that runs in a process of its own "
         "(CI's server smoke, REPL smoke and trace replay drive it)")
TOOLING = "developer tooling (repro-lint and the runtime sanitizers)"
ERROR = "an error path"
API = "public API that README or the verify skill documents"
CLOSED_FORM = "a paper closed form that ROADMAP item 4 wires to the ledger"
REPORTING = "a reporting helper: a __repr__, plan display or state accessor"
TESTED = "an engine branch no drive's data or options select; tests/ enter it"
REASONS = {CHILD, TOOLING, ERROR, API, CLOSED_FORM, REPORTING, TESTED}

#: Qualified name, class prefix or module prefix -> why nothing the drive
#: runs enters it.
SURFACE: dict[str, str] = {
    "repro.analysis": TOOLING,
    # -- child processes -----------------------------------------------------
    "repro.server.client": CHILD,
    "repro.server.server": CHILD,
    "repro.server.session.ServerFront.begin_drain": CHILD,
    "repro.server.session.ServerFront.cancel_parked": CHILD,
    "repro.server.session.ServerSession._drain": CHILD,
    "repro.server.session.ServerSession.drain_step": CHILD,
    "repro.server.session.ServerSession.hello": CHILD,
    "repro.sql.repl": CHILD,
    "repro.telemetry.capture.CapturedRun.from_dict": CHILD,
    "repro.telemetry.capture.CapturedStatement.from_dict": CHILD,
    "repro.telemetry.capture.WorkloadTrace.from_dict": CHILD,
    "repro.telemetry.capture.WorkloadTrace.load": CHILD,
    "repro.telemetry.capture.WorkloadTrace.statement_count": CHILD,
    "repro.telemetry.metrics.Gauge.set": CHILD,
    "repro.telemetry.metrics.MetricsRegistry.gauge": CHILD,
    "repro.telemetry.replay.ReplayResult.describe": CHILD,
    "repro.telemetry.replay.main": CHILD,
    # -- error paths ---------------------------------------------------------
    "repro.optimizer.planner.Planner._raise_unresolvable": ERROR,
    "repro.server.protocol.ProtocolError.__init__": ERROR,
    "repro.server.session._failure_frame": ERROR,
    "repro.sql.ast.ColumnRef.display": ERROR,
    "repro.sql.binder.Binder._error": ERROR,
    "repro.sql.binder.Binder._unknown_column": ERROR,
    "repro.sql.binder.Binder._unknown_table": ERROR,
    "repro.sql.lexer.Lexer._error": ERROR,
    "repro.sql.lexer.Token.describe": ERROR,
    "repro.sql.lexer.error_at": ERROR,
    "repro.sql.parser._Parser._error": ERROR,
    "repro.storage.buffer._outside": ERROR,
    # -- documented API ------------------------------------------------------
    "repro.api.query": API,
    "repro.api.result.QueryResult.cpu_ms": API,
    "repro.api.result.QueryResult.io_ms": API,
    "repro.api.result.QueryResult.total_ms": API,
    "repro.api.session.Connection.commit": API,
    "repro.api.session.Connection.rollback": API,
    "repro.api.session.Cursor.__enter__": API,
    "repro.api.session.Cursor.__exit__": API,
    "repro.api.session.Cursor.__next__": API,
    "repro.api.session.Cursor.executemany": API,
    "repro.api.session.Cursor.fetchone": API,
    "repro.api.session.PreparedStatement.explain": API,
    "repro.core.trigger.EagerTrigger.should_morph": API,
    "repro.database.Database.drop_index": API,
    "repro.exec.expressions.KeyRange.all": API,
    "repro.exec.expressions.KeyRange.contains": API,
    "repro.exec.iterator.Operator.rows": API,
    "repro.exec.scheduler.CooperativeScheduler.client": API,
    "repro.exec.values.negate": API,
    "repro.server.admission.AdmissionStats.to_dict": API,
    "repro.server.session.ServerFront.queued": API,
    "repro.server.session.ServerFront.sessions": API,
    "repro.server.session.ServerSession._close_cursor": API,
    "repro.server.session.ServerSession._start_explain": API,
    "repro.server.session.ServerSession._stats": API,
    "repro.sql.binder.Binder._bind_exists": API,
    "repro.sql.binder.Binder._correlation_of": API,
    "repro.sql.lexer.normalize_statement": API,
    "repro.sql.parser._Parser._exists": API,
    "repro.sql.parser._Parser._parenthesized_bool": API,
    "repro.storage.chunk.Chunk.__iter__": API,
    "repro.storage.heap.HeapFile.append": API,
    "repro.storage.heap.HeapFile.row": API,
    "repro.storage.sharding.ShardSet.describe": API,
    "repro.storage.sharding.range_split_keys": API,
    "repro.storage.types.Schema.__eq__": API,
    "repro.storage.types.Schema.__hash__": API,
    "repro.storage.types.Schema.__len__": API,
    "repro.telemetry.metrics.MetricsRegistry.to_dict": API,
    # -- closed forms --------------------------------------------------------
    "repro.costmodel.calibration": CLOSED_FORM,
    "repro.costmodel.competitive": CLOSED_FORM,
    "repro.costmodel.formulas.ModeSplit.total": CLOSED_FORM,
    "repro.costmodel.formulas.optimal_cost": CLOSED_FORM,
    "repro.costmodel.formulas.random_ios_mode2_max": CLOSED_FORM,
    "repro.costmodel.formulas.random_ios_mode2_min": CLOSED_FORM,
    # -- reporting -----------------------------------------------------------
    "repro.api.query.Query.__repr__": REPORTING,
    "repro.api.result.QueryResult.__repr__": REPORTING,
    "repro.api.session.Connection.open_cursors": REPORTING,
    "repro.api.session.Cursor.plan": REPORTING,
    "repro.api.session.PreparedStatement.__repr__": REPORTING,
    "repro.core.caches.PageIdCache.pages_seen": REPORTING,
    "repro.core.caches.ResultCache.entries": REPORTING,
    "repro.core.caches.ResultCache.num_partitions": REPORTING,
    "repro.core.caches._Bitmap.count": REPORTING,
    "repro.core.morph_join.MorphingIndexJoin.children": REPORTING,
    "repro.core.morph_join.MorphingIndexJoin.name": REPORTING,
    "repro.core.switch_scan.SwitchScan.name": REPORTING,
    "repro.database.Database.buffer": REPORTING,
    "repro.database.Database.clock": REPORTING,
    "repro.exec.aggregates.HashAggregate.children": REPORTING,
    "repro.exec.exchange.Exchange.children": REPORTING,
    "repro.exec.exchange.ShardedScan.children": REPORTING,
    "repro.exec.expressions.And.__repr__": REPORTING,
    "repro.exec.expressions.Between.__repr__": REPORTING,
    "repro.exec.expressions.ColumnComparison.__repr__": REPORTING,
    "repro.exec.expressions.Comparison.__repr__": REPORTING,
    "repro.exec.expressions.InList.__repr__": REPORTING,
    "repro.exec.expressions.Not.__repr__": REPORTING,
    "repro.exec.expressions.Or.__repr__": REPORTING,
    "repro.exec.expressions.StringMatch.__repr__": REPORTING,
    "repro.exec.expressions.TruePredicate.__repr__": REPORTING,
    "repro.exec.iterator.Operator.children": REPORTING,
    "repro.exec.iterator.explain": REPORTING,
    "repro.exec.joins.HashJoin.children": REPORTING,
    "repro.exec.joins.IndexNestedLoopJoin.children": REPORTING,
    "repro.exec.misc.Filter.children": REPORTING,
    "repro.exec.misc.Filter.name": REPORTING,
    "repro.exec.misc.Limit.children": REPORTING,
    "repro.exec.misc.MapProject.children": REPORTING,
    "repro.exec.misc.Project.children": REPORTING,
    "repro.exec.misc.Rename.children": REPORTING,
    "repro.exec.misc.Rename.name": REPORTING,
    "repro.exec.misc.RowCounter.children": REPORTING,
    "repro.exec.misc.RowCounter.name": REPORTING,
    "repro.exec.scheduler.WorkloadReport.from_detail_dict": REPORTING,
    "repro.exec.sort.Sort.children": REPORTING,
    "repro.exec.stats.RunResult.__repr__": REPORTING,
    "repro.exec.stats.RunResult.buffer_hits": REPORTING,
    "repro.exec.stats.RunResult.buffer_misses": REPORTING,
    "repro.experiments.fig4_table2.Fig4Result.report": REPORTING,
    "repro.index.btree.BTreeIndex.num_leaves": REPORTING,
    "repro.optimizer.costing.AccessPathCost.__repr__": REPORTING,
    "repro.optimizer.params.ParamBox.__repr__": REPORTING,
    "repro.optimizer.params.ParamMarker.__repr__": REPORTING,
    "repro.optimizer.plan_cache.PlanCache.__len__": REPORTING,
    "repro.optimizer.plan_cache.PlanCacheStats.__repr__": REPORTING,
    "repro.runtime.CostLedger.__repr__": REPORTING,
    "repro.server.admission.AdmissionStats.decided": REPORTING,
    "repro.storage.buffer.BufferPool.__len__": REPORTING,
    "repro.storage.buffer.BufferPool.contains": REPORTING,
    "repro.storage.buffer.BufferStats.hit_rate": REPORTING,
    "repro.storage.chunk.Chunk.__repr__": REPORTING,
    "repro.storage.disk.SimClock.__repr__": REPORTING,
    "repro.storage.table.Table.__repr__": REPORTING,
    # -- branches only tests/ select -----------------------------------------
    "repro.core.caches.ResultCache._partition_pages": TESTED,
    "repro.core.caches.ResultCache._spill_furthest": TESTED,
    "repro.core.caches.ResultCache._unspill": TESTED,
    "repro.exec.exchange.Exchange._shard_label": TESTED,
    "repro.exec.expressions.KeyRange.intersect": TESTED,
    "repro.exec.expressions._all_unknown": TESTED,
    "repro.exec.expressions._split": TESTED,
    "repro.exec.values._python_arith": TESTED,
    "repro.exec.values._values": TESTED,
    "repro.optimizer.costing.smooth_scan_estimate": TESTED,
    "repro.optimizer.params.ParamBox.__init__": TESTED,
    "repro.storage.disk.SimulatedDisk.overflow_read": TESTED,
    "repro.storage.disk.SimulatedDisk.overflow_write": TESTED,
}


def definitions() -> dict[str, tuple[Path, int, int]]:
    """``{qualified name: (file, first line, lines)}`` for every module
    function and method under ``src/repro``.  The first line is the code
    object's: the first decorator's, if there is one."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(module, tree.body)]
        while scopes:
            prefix, body = scopes.pop()
            for node in body:
                name = f"{prefix}.{getattr(node, 'name', '')}"
                if isinstance(node, ast.ClassDef):
                    scopes.append((name, node.body))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)
                                 ) and not declaration(node):
                    first = min([node.lineno] + [d.lineno for d in
                                                 node.decorator_list])
                    found[name] = (path.resolve(), first,
                                   node.end_lineno - first + 1)
    return found


def declaration(node: ast.FunctionDef) -> bool:
    """An abstract method, or a def whose body is only a docstring, ``...``
    or ``pass``: there is no code in it to enter."""
    if any(getattr(d, "id", getattr(d, "attr", None)) == "abstractmethod"
           for d in node.decorator_list):
        return True
    return all(isinstance(stmt, ast.Pass) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in node.body)


def drive() -> set[tuple[str, int]]:
    """Run the benchmarks, the traced perf smoke and the examples under
    one profile hook; the ``(file, first line)`` of every code entered."""
    entered: set = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    import pytest

    os.chdir(ROOT)
    argv, path = sys.argv[:], sys.path[:]
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        if pytest.main(["benchmarks", "--benchmark-disable", "-q"]):
            raise RuntimeError("benchmarks/ failed under the census hook")
        with tempfile.TemporaryDirectory() as scratch:
            run_script(ROOT / "perf" / "run.py", "--smoke", "--trace",
                       "--out", str(Path(scratch) / "perf.json"))
        for example in sorted((ROOT / "examples").glob("*.py")):
            run_script(example)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        sys.argv[:], sys.path[:] = argv, path
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno)
            for code in entered}


def run_script(script: Path, *args: str) -> None:
    """``python script args...`` in this process.  A failing drive fails
    the census (here and for the benchmarks above), since a drive that
    stopped early entered too little."""
    sys.argv[:] = [str(script), *args]
    sys.path.insert(0, str(script.parent))
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as stop:
        if stop.code:
            raise RuntimeError(f"{script.name} exited {stop.code}") from None
    finally:
        sys.path.remove(str(script.parent))


def census(entered: set[tuple[str, int]]) -> dict:
    defs = definitions()
    reached = {name for name, (path, first, _) in defs.items()
               if (str(path), first) in entered}

    def under(entry: str) -> list[str]:
        return [n for n in defs if n == entry or n.startswith(entry + ".")]

    covered = {n for entry in SURFACE for n in under(entry)}
    unreached = sorted(n for n in defs if n not in reached | covered)
    stale = sorted(entry for entry, reason in SURFACE.items()
                   if reason not in REASONS
                   or not [n for n in under(entry) if n not in reached])
    missed = [n for n in defs if n not in reached]
    return {
        "functions": len(defs),
        "entered": len(reached),
        "not_entered": len(missed),
        "not_entered_lines": sum(defs[n][2] for n in missed),
        "surface": len(covered - reached),
        "unreached": unreached,
        "stale_surface": stale,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", type=Path, default=Path("census.json"))
    args = parser.parse_args(argv)
    path = args.report.resolve()
    report = census(drive())
    with open(path, "w") as out:
        json.dump(report, out, indent=1)
        out.write("\n")
    print(f"census: {report['entered']} of {report['functions']} src "
          f"functions entered, {report['surface']} named surface, "
          f"{len(report['unreached'])} unreached, "
          f"{len(report['stale_surface'])} stale surface entries")
    for name in report["unreached"]:
        print(f"unreached: {name}")
    for entry in report["stale_surface"]:
        print(f"stale surface: {entry}")
    return 1 if report["unreached"] or report["stale_surface"] else 0


if __name__ == "__main__":
    sys.exit(main())

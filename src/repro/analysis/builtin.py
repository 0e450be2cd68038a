"""The built-in rules: the repo's cost/determinism disciplines, encoded.

Each rule here is one invariant the reproduction's claims rest on —
simulated costs flow only through the charge APIs, attribution windows
always close, telemetry observes for free, artifacts are deterministic.
See each rule's ``rationale`` (or ``python -m repro.analysis --explain
RPLxxx``) for the discipline it enforces and the fix it expects.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import (
    ModuleUnit,
    ProjectIndex,
    Rule,
    register,
)

#: Modules under ``src/repro`` allowed to read the wall clock.  Empty: the
#: wall-clock benchmark lives outside the package (``perf/``), so today no
#: engine module may.  Kept as the one place to admit a module that
#: *deliberately* measures real elapsed time (the per-operator profiler's
#: wall-ns column is the expected first entry) instead of inline allows.
WALLCLOCK_SIDECARS: tuple[str, ...] = ()

#: Wall-clock and entropy sources banned outside the sidecar modules.
_BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.process_time": "wall-clock read",
    "time.process_time_ns": "wall-clock read",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time-derived id",
    "uuid.uuid4": "OS entropy",
}

#: ``x.now()`` / ``x.today()`` style calls flagged by trailing parts.
_BANNED_TAILS = {
    "datetime.now": "wall-clock read",
    "datetime.utcnow": "wall-clock read",
    "datetime.today": "wall-clock read",
    "date.today": "wall-clock read",
}


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin, from this module's imports."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return out


def _dotted(func: ast.expr, imports: dict[str, str]) -> str | None:
    """Resolve a call target to a dotted path through the import map."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(imports.get(node.id, node.id))
    return ".".join(reversed(parts))


@register
class WallClockRule(Rule):
    """RPL101: simulated results must not read the wall clock."""

    code = "RPL101"
    name = "no-wallclock"
    rationale = (
        "Every reported number is simulated (SimClock) so that "
        "bench_results/ artifacts are byte-identical across machines and "
        "runs.  Wall-clock reads (time.time, perf_counter, datetime.now), "
        "OS entropy (os.urandom, uuid4, secrets) and unseeded RNGs "
        "(random.random(), random.Random() without a seed, numpy.random.*) "
        "smuggle host state into results.  Use the simulated clock, a "
        "seeded random.Random(seed), or move genuine wall-clock "
        "measurement out of the package (perf/) or into a module "
        "allowlisted in WALLCLOCK_SIDECARS "
        f"({', '.join(WALLCLOCK_SIDECARS) or 'currently none'})."
    )

    def check(self, unit: ModuleUnit,
              index: ProjectIndex) -> Iterator[Diagnostic]:
        if unit.match(*WALLCLOCK_SIDECARS):
            return
        imports = _import_map(unit.tree)
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func, imports)
            if dotted is None:
                continue
            finding = self._classify(dotted, node)
            if finding is not None:
                yield self.diag(unit, node, finding)

    def _classify(self, dotted: str, node: ast.Call) -> str | None:
        if dotted in _BANNED_CALLS:
            return (f"{dotted}() is a {_BANNED_CALLS[dotted]}; simulated "
                    "results must come from the SimClock")
        for tail, what in _BANNED_TAILS.items():
            if dotted == tail or dotted.endswith("." + tail):
                return (f"{dotted}() is a {what}; simulated results must "
                        "come from the SimClock")
        if dotted.startswith("secrets."):
            return f"{dotted}() draws OS entropy; use a seeded Random"
        if dotted == "random.Random" and not (node.args or node.keywords):
            return ("random.Random() without a seed draws OS entropy; "
                    "pass an explicit seed")
        if dotted.startswith("random.") and dotted != "random.Random":
            return (f"{dotted}() uses the shared unseeded RNG; use a "
                    "seeded random.Random(seed) instance")
        if dotted.startswith("numpy.random."):
            seeded = (dotted.endswith(("default_rng", "RandomState",
                                       "SeedSequence", "Generator"))
                      and (node.args or node.keywords))
            if not seeded:
                return (f"{dotted}() is not reproducibly seeded; use "
                        "numpy.random.default_rng(seed)")
        return None


#: Builtins that consume iteration order (flagged over sets) vs those
#: that are order-insensitive (fine over sets).
_ORDER_SENSITIVE = {"list", "tuple", "enumerate", "iter", "reversed", "zip"}


class _SetTracker(ast.NodeVisitor):
    """Per-scope tracking of names that are statically set-typed."""

    def __init__(self) -> None:
        self.set_names: set = set()
        self.tainted: set = set()

    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.Name):
            return (node.id in self.set_names
                    and node.id not in self.tainted)
        return False

    def note_assign(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        if self.is_set(value):
            self.set_names.add(target.id)
        elif target.id in self.set_names:
            # Reassigned to something else: no longer trustworthy.
            self.tainted.add(target.id)


@register
class UnorderedIterationRule(Rule):
    """RPL102: no order-dependent consumption of bare sets."""

    code = "RPL102"
    name = "no-unordered-iteration"
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED for strings and on "
        "insertion history in general, so any set feeding artifact text, "
        "plan decisions or emitted rows makes output non-reproducible.  "
        "Iterate sorted(the_set) (or keep an ordered container) wherever "
        "order can reach output.  Order-insensitive folds (len, sum, min, "
        "max, any, all, membership) are fine.  Dict iteration is NOT "
        "flagged: Python dicts preserve insertion order."
    )

    def check(self, unit: ModuleUnit,
              index: ProjectIndex) -> Iterator[Diagnostic]:
        # Scopes: the module body plus every function body, each with
        # its own name tracking (simple, assignment-order scan).
        scopes: list[tuple[ast.AST, list[ast.stmt]]] = [
            (unit.tree, unit.tree.body)
        ]
        for node in ast.walk(unit.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node, node.body))
        for scope, body in scopes:
            yield from self._check_scope(unit, scope, body)

    def _check_scope(self, unit: ModuleUnit, scope: ast.AST,
                     body: list[ast.stmt]) -> Iterator[Diagnostic]:
        tracker = _SetTracker()
        # Walk the scope without descending into nested functions
        # (they are separate scopes with their own pass).
        for node in self._scope_walk(body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    tracker.note_assign(target, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                tracker.note_assign(node.target, node.value)
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if tracker.is_set(node.iter):
                    yield self._flag(unit, node.iter, "for loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for gen in node.generators:
                    if tracker.is_set(gen.iter):
                        yield self._flag(unit, gen.iter, "comprehension")
            elif isinstance(node, ast.Call):
                yield from self._check_call(unit, tracker, node)

    def _scope_walk(self, body: list[ast.stmt]) -> Iterator[ast.AST]:
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop(0)
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function is its own scope with its own pass.
                continue
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    continue
                stack.append(child)

    def _check_call(self, unit: ModuleUnit, tracker: _SetTracker,
                    node: ast.Call) -> Iterator[Diagnostic]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE:
            for arg in node.args:
                if tracker.is_set(arg):
                    yield self._flag(unit, arg, f"{func.id}()")
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            for arg in node.args:
                if tracker.is_set(arg):
                    yield self._flag(unit, arg, "str.join()")

    def _flag(self, unit: ModuleUnit, node: ast.AST,
              where: str) -> Diagnostic:
        return self.diag(
            unit, node,
            f"set iterated in order-sensitive position ({where}); wrap "
            "in sorted(...) or use an ordered container",
        )


#: Open -> close pairings for RPL103.
_WINDOW_PAIRS = {
    "begin_attribution": "end_attribution",
    "begin_query": "finish_query",
    "begin_shard_attribution": "end_shard_attribution",
    "begin_span": "end_span",
}


@register
class WindowPairingRule(Rule):
    """RPL103: attribution windows and trace spans close in a finally."""

    code = "RPL103"
    name = "paired-windows"
    rationale = (
        "begin_attribution/end_attribution route charges into per-query "
        "ledgers; a window left open after an exception mis-attributes "
        "every later charge (and the next begin raises).  The same goes "
        "for tracer spans (begin_query/finish_query).  Every opener must "
        "have its closer in a finally block guarding it — either the "
        "opener is the statement immediately before a try whose finally "
        "closes, or it sits inside that try's body.  Lifecycles that "
        "genuinely span methods (an object opens in one method, closes "
        "in another on every exit path) are annotated "
        "# repro: allow[RPL103] with the reason."
    )

    def check(self, unit: ModuleUnit,
              index: ProjectIndex) -> Iterator[Diagnostic]:
        for node in ast.walk(unit.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(unit, node)

    def _call_name(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute):
            return node.func.attr
        return None

    def _contains_call(self, nodes: list[ast.stmt], name: str) -> bool:
        for stmt in nodes:
            for node in ast.walk(stmt):
                if self._call_name(node) == name:
                    return True
        return False

    def _check_function(self, unit: ModuleUnit,
                        fn: ast.AST) -> Iterator[Diagnostic]:
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(fn):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        closers_present = {
            close for close in _WINDOW_PAIRS.values()
            if self._contains_call(fn.body, close)
        }
        for node in ast.walk(fn):
            opener = self._call_name(node)
            if opener not in _WINDOW_PAIRS:
                continue
            close = _WINDOW_PAIRS[opener]
            if self._is_protected(node, close, parents):
                continue
            if close in closers_present:
                yield self.diag(
                    unit, node,
                    f"{opener}() is not guarded by a finally calling "
                    f"{close}(); move the close into a finally",
                )
            else:
                yield self.diag(
                    unit, node,
                    f"{opener}() is never closed ({close}()) in this "
                    "function; close it in a finally, or annotate a "
                    "cross-method lifecycle with a reason",
                )

    def _is_protected(self, call: ast.AST, close: str,
                      parents: dict[ast.AST, ast.AST]) -> bool:
        # Case 1: the opener sits inside a try whose finally closes.
        node = call
        while node in parents:
            parent = parents[node]
            if isinstance(parent, ast.Try) and node in parent.body:
                if self._contains_call(parent.finalbody, close):
                    return True
            node = parent
        # Case 2: the opener's statement is immediately followed by a
        # try whose finally closes.
        stmt = call
        while stmt in parents and not isinstance(stmt, ast.stmt):
            stmt = parents[stmt]
        if not isinstance(stmt, ast.stmt) or stmt not in parents:
            return False
        block = self._containing_block(stmt, parents[stmt])
        if block is None:
            return False
        idx = block.index(stmt)
        if idx + 1 < len(block) and isinstance(block[idx + 1], ast.Try):
            return self._contains_call(block[idx + 1].finalbody, close)
        return False

    def _containing_block(self, stmt: ast.stmt,
                          parent: ast.AST) -> list[ast.stmt] | None:
        for name in ("body", "orelse", "finalbody"):
            block = getattr(parent, name, None)
            if isinstance(block, list) and stmt in block:
                return block
        if isinstance(parent, ast.Try):
            for handler in parent.handlers:
                if stmt in handler.body:
                    return handler.body
        return None


#: The engine's charge surface: anything that advances the simulated
#: clock or moves simulated pages.  Observation code may never call it.
_CHARGE_APIS = frozenset({
    "charge_io", "charge_cpu", "charge_cpu_seq",
    "charge_inspect", "charge_emit", "charge_compare", "charge_hash",
    "charge_cache_probe", "charge_cache_insert", "charge_index_entry",
    "read_page", "read_run", "spill", "overflow_read", "overflow_write",
    "get_page", "get_run", "touch_pages",
})


@register
class TelemetryNoChargeRule(Rule):
    """RPL104: telemetry observes for free — it never charges."""

    code = "RPL104"
    name = "telemetry-never-charges"
    rationale = (
        "The telemetry benchmark pins 'tracing overhead: zero simulated "
        "cost': a traced engine and an untraced engine run the identical "
        "simulated schedule, which holds only because telemetry code "
        "reads the clock and counters but never calls a charge API "
        "(charge_*, SimulatedDisk reads/writes, BufferPool page fetches).  "
        "Modules under telemetry/ that need costed execution (the history "
        "store syncing into its own engine) go through the public "
        "Database/Connection API of a *separate* engine instead."
    )

    def check(self, unit: ModuleUnit,
              index: ProjectIndex) -> Iterator[Diagnostic]:
        if not unit.in_dir("telemetry"):
            return
        for node in ast.walk(unit.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _CHARGE_APIS):
                yield self.diag(
                    unit, node,
                    "telemetry module calls charge API "
                    f"{node.func.attr}(); observation must be free — "
                    "route costed work through a separate engine's "
                    "public API",
                )


#: Integer counters of the cost-accounting structs (DiskStats,
#: CostLedger, BufferStats, cache stats).  Exact conservation checks
#: (ledger sums == runtime totals) rely on these never becoming floats.
_INTEGER_COUNTERS = frozenset({
    "requests", "pages_read", "seq_pages", "rand_pages", "bytes_read",
    "pages_written", "bytes_written", "buffer_hits", "buffer_misses",
    "hits", "misses",
})


@register
class IntegerCounterRule(Rule):
    """RPL105: integer cost counters stay integral."""

    code = "RPL105"
    name = "integer-counters"
    rationale = (
        "Ledger attribution diffs integer counters across windows and the "
        "conservation tests compare them *exactly* (DiskStats dataclass "
        "equality) — a float smuggled into pages_read or buffer_hits "
        "turns exact accounting into approximate accounting and breaks "
        "byte-identical artifacts.  Mutations of the known integer "
        "counters must not involve float literals, true division (use "
        "//), or float() casts."
    )

    def check(self, unit: ModuleUnit,
              index: ProjectIndex) -> Iterator[Diagnostic]:
        for node in ast.walk(unit.tree):
            target = None
            value = None
            if isinstance(node, ast.AugAssign):
                target, value = node.target, node.value
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            if (not isinstance(target, ast.Attribute)
                    or target.attr not in _INTEGER_COUNTERS
                    or value is None):
                continue
            reason = self._float_risk(value)
            if reason is not None:
                yield self.diag(
                    unit, node,
                    f"integer counter .{target.attr} mutated with "
                    f"{reason}; exact conservation requires integer "
                    "arithmetic (use //, int())",
                )

    def _float_risk(self, value: ast.expr) -> str | None:
        for node in ast.walk(value):
            if isinstance(node, ast.Constant) and isinstance(
                    node.value, float):
                return f"a float literal ({node.value})"
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                return "true division (/)"
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                return "a float() cast"
        return None


@register
class OperatorProtocolRule(Rule):
    """RPL106: operators implement batches() and never override rows()."""

    code = "RPL106"
    name = "operator-batch-protocol"
    rationale = (
        "There is one execution protocol: Operator.batches() is the "
        "abstract method every physical operator implements, and "
        "Operator.rows() is a final base-class view that flattens it.  A "
        "second rows() body is a second engine whose charges can drift "
        "from the first.  Every non-abstract Operator subclass must "
        "define batches() somewhere in its project-visible ancestry "
        "(the ABC machinery only says so at construction time, deep "
        "inside a plan), and no Operator subclass may define rows()."
    )

    def check(self, unit: ModuleUnit,
              index: ProjectIndex) -> Iterator[Diagnostic]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = index.classes.get(node.name)
            if info is None or info.module != unit.path:
                continue
            if node.name == "Operator":
                continue
            if not index.derives_from(node.name, "Operator"):
                continue
            if "rows" in info.methods:
                yield self.diag(
                    unit, node,
                    f"Operator subclass {node.name} overrides rows(); "
                    "rows() is the base class's view over batches() — "
                    "put the logic in batches()",
                )
            if info.is_abstract:
                continue
            methods = index.inherited_methods(node.name, stop="Operator")
            if "batches" not in methods:
                yield self.diag(
                    unit, node,
                    f"Operator subclass {node.name} does not implement "
                    "batches(), the one execution protocol",
                )

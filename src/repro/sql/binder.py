"""Name resolution and lowering: AST → :class:`QuerySpec` + planner hints.

The binder is where SQL meets the engine's catalog.  It resolves every
table and column reference against :attr:`Database.tables` (unknown names
raise position-annotated errors that *list the known names*), lowers the
WHERE tree onto the existing :mod:`~repro.exec.expressions` predicate
classes, turns ``EXISTS`` / ``NOT EXISTS`` subqueries into semi/anti
:class:`~repro.optimizer.logical.JoinSpec` entries, compiles each
computed value once into a chunk function (:mod:`repro.exec.values`) —
an aggregate's ``value`` or a column of a post-aggregation
:class:`~repro.optimizer.logical.MapSpec` — and maps planner hints onto
:class:`~repro.optimizer.planner.PlannerOptions`.

Two canonicalizations make SQL *measurement-identical* to the same query
built through the fluent API or wired by hand, rather than merely
result-identical:

* a lower and an upper bound on the same column (``x >= a AND x < b``)
  merge into one :class:`~repro.exec.expressions.Between` — the form the
  selectivity estimator treats as a single range instead of an AVI
  product of two half-ranges;
* select lists that spell out exactly the natural aggregate output
  (group keys, then aggregates) add no trailing projection, matching
  what the fluent builder produces when ``select()`` is never called.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import SqlError, StorageError
from repro.exec import values
from repro.exec.aggregates import AggSpec, aggregate_output_columns
from repro.exec.expressions import (
    Between,
    ColumnComparison,
    CompareOp,
    Comparison,
    InList,
    Not,
    Or,
    Predicate,
    StringMatch,
    TruePredicate,
    conjunction,
)
from repro.optimizer.logical import JoinSpec, MapSpec, OrderItem, QuerySpec
from repro.optimizer.params import (
    ParamBox,
    ParamMarker,
    predicate_markers,
    resolve_params,
    substitute_spec,
)
from repro.optimizer.planner import FORCEABLE_PATHS, PlannerOptions
from repro.sql import ast
from repro.sql.lexer import error_at
from repro.storage.types import Column, ColumnType, Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.database import Database

_COMPARE_OPS = {
    "=": CompareOp.EQ, "!=": CompareOp.NE, "<": CompareOp.LT,
    "<=": CompareOp.LE, ">": CompareOp.GT, ">=": CompareOp.GE,
}
_FLIPPED = {
    CompareOp.EQ: CompareOp.EQ, CompareOp.NE: CompareOp.NE,
    CompareOp.LT: CompareOp.GT, CompareOp.LE: CompareOp.GE,
    CompareOp.GT: CompareOp.LT, CompareOp.GE: CompareOp.LE,
}
#: Hints the binder understands, with the PlannerOptions field each sets.
VALID_HINTS = ("force_path", "no_inlj", "no_index", "no_sort_scan", "smooth")


@dataclass(frozen=True)
class BoundStatement:
    """A bound SQL statement: the logical spec plus hint-derived options.

    When the statement used ``?`` / ``:name`` placeholders the spec is
    *parameterized* — predicates and LIMIT carry
    :class:`~repro.optimizer.params.ParamMarker` slots — and
    :meth:`bind_params` produces the concrete spec for one execution.
    ``normalized`` is the whitespace/comment-insensitive statement text
    the plan cache keys on.
    """

    spec: QuerySpec
    explain: bool
    hint_options: PlannerOptions | None
    normalized: str = ""
    param_names: tuple[str | None, ...] = ()
    param_box: ParamBox | None = None
    #: Slots feeding sum()/avg() arguments: a string there would only
    #: surface as a raw TypeError deep inside the aggregate, so these
    #: are checked when values arrive (the literal twin is rejected at
    #: bind time by _check_agg_input); NULL passes as a NULL value.
    numeric_params: frozenset[int] = frozenset()

    @property
    def param_count(self) -> int:
        """How many bind parameters the statement declares."""
        return len(self.param_names)

    def bind_params(self, params: object = None) -> QuerySpec:
        """The concrete spec for one execution.

        Validates and orders ``params`` (a sequence for ``?`` style, a
        mapping for ``:name`` style), fills the compiled-callable slots,
        and substitutes every structural marker — without re-lexing,
        re-parsing or re-binding the statement.
        """
        values = resolve_params(self.param_names, params)
        for i in sorted(self.numeric_params):
            value = values[i]
            # NULL is a NULL value there, as in max() and count().
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, (int, float))):
                name = self.param_names[i]
                label = f":{name}" if name else f"parameter {i + 1}"
                raise SqlError(
                    f"{label} is an argument of sum()/avg() and must "
                    f"be numeric, got {value!r}"
                )
        if self.param_box is not None:
            self.param_box.values = values
        return substitute_spec(self.spec, values)

    def planner_options(
            self, base: PlannerOptions | None = None) -> PlannerOptions | None:
        """Layer the statement's hints over ``base`` options.

        Hints override only the fields they name, so ``mode_options`` +
        a ``force_path`` hint composes the way users expect.
        """
        if self.hint_options is None:
            return base
        if base is None:
            return self.hint_options
        merged = replace(base)
        h = self.hint_options
        if h.force_path is not None:
            merged.force_path = h.force_path
        if not h.enable_inlj:
            merged.enable_inlj = False
        if not h.enable_index:
            merged.enable_index = False
        if not h.enable_sort_scan:
            merged.enable_sort_scan = False
        if h.enable_smooth:
            merged.enable_smooth = True
        return merged


class Binder:
    """Binds one parsed statement against one database's catalog."""

    def __init__(self, db: "Database", text: str = ""):
        self.db = db
        self.text = text
        # Parameter slots shared by every compiled value callable of the
        # statement being bound; bind_params() fills it per execution.
        self._box = ParamBox()
        self._numeric_params: set[int] = set()

    # -- error helpers ------------------------------------------------------

    def _error(self, message: str, node: ast.Node) -> SqlError:
        if self.text:
            return error_at(message, self.text, node.line, node.col)
        return SqlError(message)

    def _unknown_table(self, name: str, node: ast.Node) -> SqlError:
        known = ", ".join(sorted(self.db.tables)) or "(no tables loaded)"
        return self._error(
            f"unknown table {name!r}; known tables: {known}", node
        )

    def _unknown_column(self, ref: ast.ColumnRef,
                        scope: list[tuple[str, Schema]]) -> SqlError:
        known = "; ".join(
            f"{name}({', '.join(schema.column_names)})"
            for name, schema in scope
        )
        return self._error(
            f"unknown column {ref.display!r}; known columns: {known}", ref
        )

    # -- public entry point --------------------------------------------------

    def bind(self, select: ast.Select) -> BoundStatement:
        base = self._table(select.table, select)
        scope: list[tuple[str, Schema]] = [(base.name, base.schema)]
        joins: list[JoinSpec] = []
        visible: list[tuple[str, Schema]] = [(base.name, base.schema)]

        for clause in select.joins:
            spec = self._bind_join(clause, scope, visible)
            joins.append(spec)

        conjuncts: list[Predicate] = []
        if select.where is not None:
            # WHERE conjuncts resolve against the FROM-clause scope only
            # (EXISTS subquery tables never leak out), so acceptance does
            # not depend on the order conjuncts are written in.
            where_scope = list(scope)
            for part in _flatten_and(select.where):
                exists = self._as_exists(part)
                if exists is not None:
                    join_spec, pushed = self._bind_exists(
                        exists, scope, where_scope
                    )
                    joins.append(join_spec)
                    conjuncts.extend(pushed)
                else:
                    conjuncts.append(self._lower_bool(part, where_scope))
        predicate = conjunction(_merge_ranges(conjuncts))

        group_names = tuple(
            self._resolve(ref, visible) for ref in select.group_by
        )
        try:
            aggregates, select_cols, maps = self._bind_items(
                select, visible, group_names
            )
        except StorageError as exc:
            # Backstop: schema construction rejects residual name
            # collisions (e.g. a generated aggregate name colliding
            # with an alias); re-raise inside the SqlError family.
            raise self._error(f"invalid select list: {exc}",
                              select) from None
        order_by = self._bind_order(select, visible, group_names,
                                    aggregates, maps)

        limit: object = select.limit
        if isinstance(limit, ast.ParamRef):
            limit = ParamMarker(limit.index, limit.name)
        spec = QuerySpec(
            table=base.name,
            predicate=predicate,
            joins=tuple(joins),
            group_by=group_names,
            aggregates=aggregates,
            select=select_cols,
            maps=maps,
            order_by=order_by,
            limit=limit,  # type: ignore[arg-type]
        )
        return BoundStatement(
            spec=spec,
            explain=select.explain,
            hint_options=self._bind_hints(select.hints),
            normalized=select.normalized,
            param_names=tuple(p.name for p in select.params),
            param_box=self._box,
            numeric_params=frozenset(self._numeric_params),
        )

    # -- tables and joins -----------------------------------------------------

    def _table(self, name: str, node: ast.Node):
        table = self.db.tables.get(name)
        if table is None:
            raise self._unknown_table(name, node)
        return table

    def _bind_join(self, clause: ast.JoinClause,
                   scope: list[tuple[str, Schema]],
                   visible: list[tuple[str, Schema]]) -> JoinSpec:
        inner = self._table(clause.table, clause)
        if any(name == inner.name for name, _ in scope):
            raise self._error(
                f"table {inner.name!r} is referenced twice (self-joins "
                "are not supported)", clause,
            )
        left_key, right_key = self._orient_join_keys(
            clause.on_left, clause.on_right, inner.name, inner.schema, scope
        )
        scope.append((inner.name, inner.schema))
        if clause.kind in ("inner", "left"):
            visible.append((inner.name, inner.schema))
        return JoinSpec(table=inner.name, left_key=left_key,
                        right_key=right_key, how=clause.kind)

    def _orient_join_keys(self, a: ast.ColumnRef, b: ast.ColumnRef,
                          inner_name: str, inner_schema: Schema,
                          scope: list[tuple[str, Schema]]
                          ) -> tuple[str, str]:
        """Decide which ON side names the new table's column."""
        def side(ref: ast.ColumnRef) -> str:
            if ref.table is not None:
                if ref.table == inner_name:
                    if not inner_schema.has_column(ref.name):
                        raise self._unknown_column(
                            ref, [(inner_name, inner_schema)])
                    return "inner"
                self._resolve(ref, scope)
                return "outer"
            in_inner = inner_schema.has_column(ref.name)
            in_scope = any(s.has_column(ref.name) for _, s in scope)
            if in_inner and in_scope:
                raise self._error(
                    f"join key {ref.name!r} exists on both sides; "
                    f"qualify it as {inner_name}.{ref.name} or "
                    "<outer_table>.<column>", ref,
                )
            if in_inner:
                return "inner"
            if in_scope:
                return "outer"
            raise self._unknown_column(
                ref, scope + [(inner_name, inner_schema)])

        sides = (side(a), side(b))
        if sides == ("outer", "inner"):
            return a.name, b.name
        if sides == ("inner", "outer"):
            return b.name, a.name
        raise self._error(
            "join ON must compare one column of the joined table with "
            "one column already in scope", a,
        )

    # -- EXISTS --------------------------------------------------------------

    def _as_exists(self, part: ast.BoolExpr) -> ast.ExistsExpr | None:
        if isinstance(part, ast.ExistsExpr):
            return part
        if isinstance(part, ast.NotExpr) and isinstance(
                part.part, ast.ExistsExpr):
            inner = part.part
            return ast.ExistsExpr(part.line, part.col, inner.subquery,
                                  negated=not inner.negated)
        return None

    def _bind_exists(self, exists: ast.ExistsExpr,
                     scope: list[tuple[str, Schema]],
                     where_scope: list[tuple[str, Schema]]
                     ) -> tuple[JoinSpec, list[Predicate]]:
        """Lower ``[NOT] EXISTS (SELECT ...)`` to a semi/anti join.

        The subquery must reference a single table; its WHERE needs
        exactly one correlated equality (inner column = outer column
        resolved against ``where_scope``, the FROM-clause tables);
        every other conjunct must touch only the inner table and is
        pushed into the main predicate, which the planner then pushes
        below the semi/anti join — EXISTS semantics by construction.
        ``scope`` tracks every referenced table for duplicate detection.
        """
        sub = exists.subquery
        if sub.joins or sub.group_by or sub.order_by or sub.limit is not None:
            raise self._error(
                "EXISTS subqueries support a single table with a WHERE "
                "clause only", sub,
            )
        inner = self._table(sub.table, sub)
        if any(name == inner.name for name, _ in scope):
            raise self._error(
                f"table {inner.name!r} is referenced twice (self-joins "
                "are not supported)", sub,
            )
        if sub.where is None:
            raise self._error(
                "EXISTS subqueries need a correlated equality in WHERE "
                "(e.g. t.key = outer_key)", sub,
            )
        inner_scope = [(inner.name, inner.schema)]
        # EXISTS ignores its select list, but typos there still deserve
        # the front end's diagnostics: only *, literals and resolvable
        # inner columns are accepted.
        for item in sub.items:
            if isinstance(item.expr, ast.ColumnRef):
                self._resolve(item.expr, inner_scope)
            elif not isinstance(item.expr, (ast.Star, ast.Literal)):
                raise self._error(
                    "EXISTS select lists support '*', literals and "
                    "columns of the subquery table", item,
                )
        correlation: tuple[str, str] | None = None
        pushed: list[Predicate] = []
        for part in _flatten_and(sub.where):
            link = self._correlation_of(part, inner.name, inner.schema,
                                        where_scope)
            if link is not None:
                if correlation is not None:
                    raise self._error(
                        "EXISTS subqueries support exactly one correlated "
                        "equality", part,
                    )
                correlation = link
                continue
            lowered = self._lower_bool(part, inner_scope)
            # Pushed conjuncts travel by bare column name and the planner
            # resolves shared names to the *visible* owner — which would
            # silently re-aim this filter at an outer table.  Refuse the
            # ambiguity instead of executing the wrong query.
            clash = sorted(
                c for c in lowered.columns()
                if any(s.has_column(c) for _, s in where_scope)
            )
            if clash:
                raise self._error(
                    f"columns {clash} inside EXISTS also exist on an "
                    "outer table; rename columns to disambiguate", part,
                )
            pushed.append(lowered)
        if correlation is None:
            raise self._error(
                "EXISTS subqueries need a correlated equality in WHERE "
                "(e.g. t.key = outer_key)", sub,
            )
        outer_key, inner_key = correlation
        if not inner.schema.has_column(inner_key):
            raise self._unknown_column(
                ast.ColumnRef(sub.line, sub.col, inner_key),
                [(inner.name, inner.schema)],
            )
        if not any(s.has_column(outer_key) for _, s in where_scope):
            raise self._unknown_column(
                ast.ColumnRef(sub.line, sub.col, outer_key), where_scope
            )
        how = "anti" if exists.negated else "semi"
        join = JoinSpec(table=inner.name, left_key=outer_key,
                        right_key=inner_key, how=how)
        scope.append((inner.name, inner.schema))
        return join, pushed

    def _correlation_of(self, part: ast.BoolExpr, inner_name: str,
                        inner_schema: Schema,
                        outer_scope: list[tuple[str, Schema]]
                        ) -> tuple[str, str] | None:
        """``(outer_key, inner_key)`` if ``part`` correlates the scopes."""
        if not (isinstance(part, ast.Compare) and part.op == "="
                and isinstance(part.left, ast.ColumnRef)
                and isinstance(part.right, ast.ColumnRef)):
            return None

        def locate(ref: ast.ColumnRef) -> str | None:
            if ref.table is not None:
                if any(n == ref.table for n, _ in outer_scope):
                    return "outer"
                if ref.table == inner_name:
                    return "inner"
                # Unknown qualifier: not a correlation — the conjunct
                # falls through to pushdown lowering, which raises the
                # position-annotated unknown-table error.
                return None
            in_inner = inner_schema.has_column(ref.name)
            in_outer = any(s.has_column(ref.name) for _, s in outer_scope)
            if in_inner and not in_outer:
                return "inner"
            if in_outer and not in_inner:
                return "outer"
            return None  # ambiguous or unknown: not a correlation

        sides = (locate(part.left), locate(part.right))
        if sides == ("outer", "inner"):
            return part.left.name, part.right.name
        if sides == ("inner", "outer"):
            return part.right.name, part.left.name
        return None

    # -- name resolution ------------------------------------------------------

    def _resolve(self, ref: ast.ColumnRef,
                 scope: list[tuple[str, Schema]]) -> str:
        """Resolve a column reference to its engine (unqualified) name."""
        if ref.table is not None:
            for name, schema in scope:
                if name == ref.table:
                    if not schema.has_column(ref.name):
                        raise self._unknown_column(ref, [(name, schema)])
                    # Lowered predicates carry bare names, so a qualifier
                    # cannot survive to execution; if another referenced
                    # table shares the name, the planner would re-aim the
                    # predicate at whichever owner is visible.  Refuse.
                    others = [n for n, s in scope
                              if n != name and s.has_column(ref.name)]
                    if others:
                        raise self._error(
                            f"column {ref.name!r} exists in several "
                            f"referenced tables ({[name] + others}) and "
                            "predicates are name-based; rename columns "
                            "to disambiguate", ref,
                        )
                    return ref.name
            raise self._unknown_table(ref.table, ref)
        owners = [name for name, schema in scope
                  if schema.has_column(ref.name)]
        if not owners:
            raise self._unknown_column(ref, scope)
        if len(owners) > 1:
            raise self._error(
                f"column {ref.name!r} is ambiguous (in tables "
                f"{owners}); qualify it as <table>.{ref.name}", ref,
            )
        return ref.name

    # -- WHERE lowering -------------------------------------------------------

    def _lower_bool(self, expr: ast.BoolExpr,
                    scope: list[tuple[str, Schema]]) -> Predicate:
        if isinstance(expr, ast.AndExpr):
            return conjunction(
                [self._lower_bool(p, scope) for p in expr.parts]
            )
        if isinstance(expr, ast.OrExpr):
            return Or([self._lower_bool(p, scope) for p in expr.parts])
        if isinstance(expr, ast.NotExpr):
            return Not(self._lower_bool(expr.part, scope))
        if isinstance(expr, ast.ExistsExpr):
            raise self._error(
                "EXISTS is only supported as a top-level WHERE conjunct "
                "(not nested under OR/NOT)", expr,
            )
        if isinstance(expr, ast.Compare):
            return self._lower_compare(expr, scope)
        if isinstance(expr, ast.BetweenExpr):
            column = self._operand_column(expr.operand, scope)
            lo = self._literal(expr.lo)
            hi = self._literal(expr.hi)
            between = Between(column, lo, hi,
                              lo_inclusive=True, hi_inclusive=True)
            return Not(between) if expr.negated else between
        if isinstance(expr, ast.InExpr):
            column = self._operand_column(expr.operand, scope)
            in_list = InList(column, tuple(
                ParamMarker(v.index, v.name)
                if isinstance(v, ast.ParamRef) else v
                for v in expr.values
            ))
            return Not(in_list) if expr.negated else in_list
        if isinstance(expr, ast.LikeExpr):
            return self._lower_like(expr, scope)
        raise self._error("unsupported WHERE expression", expr)

    def _lower_compare(self, expr: ast.Compare,
                       scope: list[tuple[str, Schema]]) -> Predicate:
        op = _COMPARE_OPS[expr.op]
        left, right = expr.left, expr.right
        constant = (ast.Literal, ast.ParamRef)
        if isinstance(left, ast.ColumnRef) and isinstance(
                right, ast.ColumnRef):
            return ColumnComparison(self._resolve(left, scope), op,
                                    self._resolve(right, scope))
        if isinstance(left, ast.ColumnRef) and isinstance(right, constant):
            return Comparison(self._resolve(left, scope), op,
                              self._constant_of(right))
        if isinstance(left, constant) and isinstance(right, ast.ColumnRef):
            return Comparison(self._resolve(right, scope), _FLIPPED[op],
                              self._constant_of(left))
        if isinstance(left, constant) and isinstance(right, constant):
            raise self._error(
                "comparison of two literals is not supported", expr
            )
        raise self._error(
            "WHERE comparisons support column-vs-literal and "
            "column-vs-column only (no arithmetic or aggregates)", expr,
        )

    def _lower_like(self, expr: ast.LikeExpr,
                    scope: list[tuple[str, Schema]]) -> Predicate:
        column = self._operand_column(expr.operand, scope)
        for _name, schema in scope:
            if schema.has_column(column):
                ctype = schema.columns[schema.index_of(column)].ctype
                if ctype is not ColumnType.CHAR:
                    raise self._error(
                        f"LIKE needs a string column; {column!r} is "
                        f"{ctype.value}", expr,
                    )
                break
        pattern = expr.pattern
        inner = pattern.strip("%")
        if pattern and not inner and "_" not in pattern:
            # LIKE '%' (any run of percents): matches every value.
            true: Predicate = TruePredicate()
            return Not(true) if expr.negated else true
        if "%" in inner or "_" in pattern:
            raise self._error(
                f"unsupported LIKE pattern {pattern!r}; only 'x%', "
                "'%x', '%x%' and literal matches are supported", expr,
            )
        pred: Predicate
        if pattern.startswith("%") and pattern.endswith("%") and inner:
            pred = StringMatch(column, "contains", inner)
        elif pattern.endswith("%") and len(pattern) > 1:
            pred = StringMatch(column, "prefix", inner)
        elif pattern.startswith("%") and len(pattern) > 1:
            pred = StringMatch(column, "suffix", inner)
        else:
            pred = Comparison(column, CompareOp.EQ, pattern)
        return Not(pred) if expr.negated else pred

    def _operand_column(self, operand: ast.Expr,
                        scope: list[tuple[str, Schema]]) -> str:
        if not isinstance(operand, ast.ColumnRef):
            raise self._error(
                "this predicate form needs a plain column on its left "
                "side", operand,
            )
        return self._resolve(operand, scope)

    def _literal(self, expr: ast.Expr) -> object:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.ParamRef):
            return ParamMarker(expr.index, expr.name)
        raise self._error("expected a literal value or parameter", expr)

    def _constant_of(self, expr: "ast.Literal | ast.ParamRef") -> object:
        """The predicate-side value of a literal or parameter node."""
        if isinstance(expr, ast.ParamRef):
            return ParamMarker(expr.index, expr.name)
        return expr.value

    # -- select list ----------------------------------------------------------

    def _bind_items(self, select: ast.Select,
                    visible: list[tuple[str, Schema]],
                    group_names: tuple[str, ...]
                    ) -> tuple[tuple[AggSpec, ...], tuple[str, ...],
                               tuple[MapSpec, ...]]:
        """Lower the select list; returns (aggregates, select, maps)."""
        has_aggs = bool(group_names) or any(
            _contains_func(item.expr) for item in select.items
        )
        if not has_aggs:
            return (), self._bind_plain_items(select, visible), ()
        return self._bind_aggregate_items(select, visible, group_names)

    def _bind_plain_items(self, select: ast.Select,
                          visible: list[tuple[str, Schema]]
                          ) -> tuple[str, ...]:
        names: list[str] = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                if len(select.items) > 1:
                    raise self._error(
                        "'*' cannot be combined with other select items",
                        item,
                    )
                return ()
            if not isinstance(item.expr, ast.ColumnRef):
                raise self._error(
                    "computed select items are only supported together "
                    "with aggregation", item,
                )
            name = self._resolve(item.expr, visible)
            if item.alias is not None and item.alias != name:
                raise self._error(
                    f"column aliases ({name!r} AS {item.alias!r}) are "
                    "not supported outside aggregation", item,
                )
            if name in names:
                raise self._error(
                    f"duplicate select column {name!r}", item
                )
            names.append(name)
        return tuple(names)

    def _bind_aggregate_items(self, select: ast.Select,
                              visible: list[tuple[str, Schema]],
                              group_names: tuple[str, ...]
                              ) -> tuple[tuple[AggSpec, ...],
                                         tuple[str, ...],
                                         tuple[MapSpec, ...]]:
        input_schema = _joined_schema(visible)
        aggs: list[AggSpec] = []
        # Each bound item: ("group", name) | ("agg", output) |
        # ("computed", name, expr-with-agg-refs)
        bound: list[tuple] = []
        for item in select.items:
            expr = item.expr
            if isinstance(expr, ast.Star):
                raise self._error(
                    "'*' cannot be combined with GROUP BY/aggregates "
                    "(name the group keys and aggregates explicitly)",
                    item,
                )
            if isinstance(expr, ast.ColumnRef):
                name = self._resolve(expr, visible)
                if name not in group_names:
                    raise self._error(
                        f"column {name!r} must appear in GROUP BY or "
                        "inside an aggregate", expr,
                    )
                if item.alias is not None and item.alias != name:
                    raise self._error(
                        "group keys cannot be aliased", item
                    )
                self._check_dup_output(name, bound, expr)
                bound.append(("group", name))
                continue
            if isinstance(expr, ast.FuncCall):
                spec = self._agg_spec(expr, item.alias, input_schema,
                                      visible, len(aggs))
                self._check_dup_output(spec.output, bound, item)
                aggs.append(spec)
                bound.append(("agg", spec.output))
                continue
            # Composite: arithmetic/CASE over aggregates and group keys.
            rewritten = self._extract_aggs(expr, input_schema, visible, aggs)
            name = item.alias or f"expr_{len(bound)}"
            self._check_dup_output(name, bound, item)
            bound.append(("computed", name, rewritten))

        agg_schema = _aggregate_schema(input_schema, group_names, aggs)
        natural = list(group_names) + [a.output for a in aggs]
        item_names = [b[1] for b in bound]

        if all(b[0] != "computed" for b in bound):
            if item_names == natural:
                return tuple(aggs), (), ()
            return tuple(aggs), tuple(item_names), ()

        # At least one computed item: everything goes through one map.
        agg_scope = [("", agg_schema)]
        nodes: list[values.Node] = []
        columns: list[Column] = []
        for entry in bound:
            if entry[0] in ("group", "agg"):
                pos = agg_schema.index_of(entry[1])
                nodes.append(values.column(pos))
                columns.append(agg_schema.columns[pos])
            else:
                node, ctype = self._compile(entry[2], agg_scope)
                nodes.append(node)
                columns.append(Column(entry[1], ctype))
        maps = (MapSpec(Schema(columns), values.compute_all(nodes)),)
        return tuple(aggs), (), maps

    def _check_dup_output(self, name: str, bound: list[tuple],
                          node: ast.Node) -> None:
        if any(entry[1] == name for entry in bound):
            raise self._error(
                f"duplicate output column {name!r}; use AS to rename",
                node,
            )

    def _agg_spec(self, call: ast.FuncCall, alias: str | None,
                  input_schema: Schema, visible: list[tuple[str, Schema]],
                  ordinal: int) -> AggSpec:
        func = call.func
        if isinstance(call.arg, ast.Star):
            if func != "count":
                raise self._error(
                    f"{func}(*) is not valid; only count(*) takes '*'",
                    call,
                )
            return AggSpec("count", alias or "count")
        if _contains_func(call.arg):
            raise self._error("aggregates cannot be nested", call)
        if isinstance(call.arg, ast.ColumnRef):
            column = self._resolve(call.arg, visible)
            pos = input_schema.index_of(column)
            self._check_agg_input(func, input_schema.columns[pos].ctype,
                                  call)
            return AggSpec(func, alias or f"{func}_{column}", column=column)
        node, ctype = self._compile(call.arg, visible)
        self._check_agg_input(func, ctype, call)
        if func in ("sum", "avg"):
            # Parameters in the argument have no bind-time type; defer
            # the numeric check to bind_params (value arrival).
            self._numeric_params.update(_param_indices(call.arg))
        return AggSpec(func, alias or f"{func}_{ordinal}",
                       value=values.compute(node))

    def _check_agg_input(self, func: str, ctype: ColumnType,
                         call: ast.FuncCall) -> None:
        """Reject arithmetic aggregates over strings at bind time."""
        if func in ("sum", "avg") and ctype is ColumnType.CHAR:
            raise self._error(
                f"{func}() needs a numeric argument, got a string "
                "column/expression", call,
            )

    def _extract_aggs(self, expr: ast.Expr, input_schema: Schema,
                      visible: list[tuple[str, Schema]],
                      aggs: list[AggSpec]) -> ast.Expr:
        """Replace FuncCall subtrees with refs to freshly-added AggSpecs."""
        if isinstance(expr, ast.FuncCall):
            spec = self._agg_spec(expr, None, input_schema, visible,
                                  len(aggs))
            if any(a.output == spec.output for a in aggs):
                # A hidden input of the map: ``count(*) * count(*)``
                # needs two names.
                spec = replace(spec, output=f"{spec.output}_{len(aggs)}")
            aggs.append(spec)
            return ast.ColumnRef(expr.line, expr.col, spec.output)
        if isinstance(expr, ast.Arith):
            return ast.Arith(
                expr.line, expr.col, expr.op,
                self._extract_aggs(expr.left, input_schema, visible, aggs),
                self._extract_aggs(expr.right, input_schema, visible, aggs),
            )
        if isinstance(expr, ast.Negate):
            return ast.Negate(
                expr.line, expr.col,
                self._extract_aggs(expr.operand, input_schema, visible,
                                   aggs),
            )
        if isinstance(expr, ast.Case):
            raise self._error(
                "CASE around aggregates is not supported (put CASE "
                "inside the aggregate instead)", expr,
            )
        return expr

    # -- scalar expression compilation ---------------------------------------

    def _compile(self, expr: ast.Expr, scope: list[tuple[str, Schema]]
                 ) -> tuple[values.Node, ColumnType]:
        """Compile a value expression to a chunk function over ``scope``."""
        schema = _joined_schema(scope)
        if isinstance(expr, ast.Literal):
            value = expr.value
            ctype = (ColumnType.FLOAT if isinstance(value, float)
                     else ColumnType.INT if isinstance(value, int)
                     else ColumnType.CHAR)
            return values.constant(value), ctype
        if isinstance(expr, ast.ParamRef):
            # Late-bound: the node reads the statement's parameter slots,
            # so re-executions with new values need no recompile.
            box = self._box
            index = expr.index
            return (lambda chunk: box.values[index]), ColumnType.FLOAT
        if isinstance(expr, ast.ColumnRef):
            pos = schema.index_of(self._resolve(expr, scope))
            return values.column(pos), schema.columns[pos].ctype
        if isinstance(expr, ast.Negate):
            node, ctype = self._compile(expr.operand, scope)
            return values.negate(node), ctype
        if isinstance(expr, ast.Arith):
            left, _lt = self._compile(expr.left, scope)
            right, _rt = self._compile(expr.right, scope)
            return values.arith(expr.op, left, right), ColumnType.FLOAT
        if isinstance(expr, ast.Case):
            condition = self._lower_bool(expr.condition, scope)
            if predicate_markers(condition):
                # The condition is bound to the schema *now*; a marker
                # would be compared against rows at runtime.
                raise self._error(
                    "parameters inside CASE conditions are not "
                    "supported", expr,
                )
            then, t_type = self._compile(expr.then, scope)
            otherwise, _o = self._compile(expr.otherwise, scope)
            return values.case(condition, schema, then, otherwise), t_type
        if isinstance(expr, ast.FuncCall):
            raise self._error("aggregates cannot be nested here", expr)
        raise self._error("unsupported expression", expr)

    # -- ORDER BY -------------------------------------------------------------

    def _bind_order(self, select: ast.Select,
                    visible: list[tuple[str, Schema]],
                    group_names: tuple[str, ...],
                    aggregates: tuple[AggSpec, ...],
                    maps: tuple[MapSpec, ...]
                    ) -> tuple[OrderItem, ...]:
        if not select.order_by:
            return ()
        if maps:
            available = set(maps[-1].schema.column_names)
        elif aggregates or group_names:
            available = set(group_names) | {a.output for a in aggregates}
        else:
            available = {
                c for _, schema in visible for c in schema.column_names
            }
        items: list[OrderItem] = []
        for key in select.order_by:
            if key.column.table is not None:
                # A qualifier must name a real table owning the column;
                # it cannot refer to aggregate/map outputs.
                name = self._resolve(key.column, visible)
            else:
                name = key.column.name
            if name not in available:
                raise self._error(
                    f"ORDER BY column {name!r} is not in the query "
                    f"output; available: {', '.join(sorted(available))}",
                    key.column,
                )
            items.append(OrderItem(name, key.ascending))
        return tuple(items)

    # -- hints ----------------------------------------------------------------

    def _bind_hints(self,
                    hints: tuple[ast.Hint, ...]) -> PlannerOptions | None:
        if not hints:
            return None
        options = PlannerOptions()
        for hint in hints:
            if hint.name == "force_path":
                if len(hint.args) != 1 \
                        or hint.args[0] not in FORCEABLE_PATHS:
                    raise self._error(
                        f"force_path takes one of {FORCEABLE_PATHS}, got "
                        f"({', '.join(hint.args) or ''})", hint,
                    )
                options.force_path = hint.args[0]
            elif hint.name == "no_inlj":
                options.enable_inlj = False
            elif hint.name == "no_index":
                options.enable_index = False
            elif hint.name == "no_sort_scan":
                options.enable_sort_scan = False
            elif hint.name == "smooth":
                options.enable_smooth = True
            else:
                raise self._error(
                    f"unknown hint {hint.name!r}; valid hints: "
                    f"{', '.join(VALID_HINTS)}", hint,
                )
        return options


# -- module helpers ----------------------------------------------------------

def _flatten_and(expr: ast.BoolExpr) -> list[ast.BoolExpr]:
    if isinstance(expr, ast.AndExpr):
        out: list[ast.BoolExpr] = []
        for part in expr.parts:
            out.extend(_flatten_and(part))
        return out
    return [expr]


def _param_indices(expr: object) -> set[int]:
    """Slot indices of every ParamRef inside a value expression."""
    if isinstance(expr, ast.ParamRef):
        return {expr.index}
    if isinstance(expr, ast.Arith):
        return _param_indices(expr.left) | _param_indices(expr.right)
    if isinstance(expr, ast.Negate):
        return _param_indices(expr.operand)
    if isinstance(expr, ast.Case):
        return _param_indices(expr.then) | _param_indices(expr.otherwise)
    return set()


def _contains_func(expr: object) -> bool:
    if isinstance(expr, ast.FuncCall):
        return True
    if isinstance(expr, ast.Arith):
        return _contains_func(expr.left) or _contains_func(expr.right)
    if isinstance(expr, ast.Negate):
        return _contains_func(expr.operand)
    if isinstance(expr, ast.Case):
        return _contains_func(expr.then) or _contains_func(expr.otherwise)
    return False


def _joined_schema(scope: list[tuple[str, Schema]]) -> Schema:
    columns: list[Column] = []
    for _, schema in scope:
        columns.extend(schema.columns)
    return Schema(columns)


def _aggregate_schema(input_schema: Schema, group_names: tuple[str, ...],
                      aggs: list[AggSpec]) -> Schema:
    """The output layout of HashAggregate: group keys then aggregates."""
    return Schema(
        aggregate_output_columns(input_schema, group_names, aggs)
    )


def _merge_ranges(conjuncts: list[Predicate]) -> list[Predicate]:
    """Merge one lower + one upper bound per column into a Between.

    ``x >= a AND x < b`` and ``Between(x, a, b)`` are logically equal but
    estimate differently (AVI product of two half-ranges vs. one
    histogram range), which would make SQL plans diverge from fluent
    ones.  Merging is skipped when a column has several bounds on the
    same side — intersecting those is :func:`extract_range`'s job.
    """
    lows: dict[str, list[int]] = {}
    highs: dict[str, list[int]] = {}
    for i, part in enumerate(conjuncts):
        if isinstance(part, Comparison):
            if part.op in (CompareOp.GT, CompareOp.GE):
                lows.setdefault(part.column, []).append(i)
            elif part.op in (CompareOp.LT, CompareOp.LE):
                highs.setdefault(part.column, []).append(i)
    merged: dict[int, Predicate] = {}
    dropped: set[int] = set()
    for column, lo_idx in lows.items():
        hi_idx = highs.get(column, [])
        if len(lo_idx) != 1 or len(hi_idx) != 1:
            continue
        lo: Comparison = conjuncts[lo_idx[0]]  # type: ignore[assignment]
        hi: Comparison = conjuncts[hi_idx[0]]  # type: ignore[assignment]
        first, second = sorted((lo_idx[0], hi_idx[0]))
        merged[first] = Between(
            column, lo.value, hi.value,
            lo_inclusive=lo.op is CompareOp.GE,
            hi_inclusive=hi.op is CompareOp.LE,
        )
        dropped.add(second)
    if not merged:
        return conjuncts
    return [
        merged.get(i, part) for i, part in enumerate(conjuncts)
        if i not in dropped
    ]

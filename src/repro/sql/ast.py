"""The typed AST the parser produces and the binder consumes.

Nodes are deliberately *syntactic*: column references are unresolved
names, literals keep their parsed Python values, and boolean structure
mirrors the source text.  All semantic work — name resolution against the
database catalog, lowering to :class:`~repro.optimizer.logical.QuerySpec`
and :class:`~repro.exec.expressions.Predicate` objects — happens in the
binder, so parse errors and binding errors report through the same
position plumbing but never mix concerns.

Every node carries ``(line, column)`` so the binder can annotate its own
errors ("unknown column") with the position of the reference, not just
the statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Node:
    """Base: every AST node knows where it came from.

    The position field is ``col`` (not ``column``) so subclasses holding
    a SQL column reference can use the natural name without colliding
    with the inherited dataclass field.
    """

    line: int
    col: int


# -- value expressions ------------------------------------------------------

@dataclass(frozen=True)
class Literal(Node):
    """A number, string, or DATE literal (already converted to days)."""

    value: object


@dataclass(frozen=True)
class ColumnRef(Node):
    """A possibly table-qualified column name."""

    name: str
    table: str | None = None

    @property
    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class ParamRef(Node):
    """A bind parameter: ``?`` (positional) or ``:name`` (named).

    ``index`` is the 0-based position in statement order — the slot the
    executed value lands in.  Named parameters may repeat; each mention
    is its own ``ParamRef`` (own index), sharing the name.
    """

    index: int
    name: str | None = None


@dataclass(frozen=True)
class Star(Node):
    """``*`` — in a select list or ``count(*)``."""


@dataclass(frozen=True)
class Arith(Node):
    """Binary arithmetic: ``left <op> right`` with op in ``+ - * /``."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Negate(Node):
    """Unary minus."""

    operand: "Expr"


@dataclass(frozen=True)
class FuncCall(Node):
    """An aggregate call: ``sum/avg/count/min/max(expr | *)``."""

    func: str
    arg: "Expr | Star"


@dataclass(frozen=True)
class Case(Node):
    """``CASE WHEN <bool> THEN <expr> ELSE <expr> END`` (single branch)."""

    condition: "BoolExpr"
    then: "Expr"
    otherwise: "Expr"


Expr = Literal | ColumnRef | ParamRef | Arith | Negate | FuncCall | Case


# -- boolean expressions ----------------------------------------------------

@dataclass(frozen=True)
class Compare(Node):
    """``left <op> right`` with op in ``= != < <= > >=``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BetweenExpr(Node):
    """``operand [NOT] BETWEEN lo AND hi`` (SQL: both ends inclusive)."""

    operand: Expr
    lo: Expr
    hi: Expr
    negated: bool = False


@dataclass(frozen=True)
class InExpr(Node):
    """``operand [NOT] IN (literal, ...)``."""

    operand: Expr
    values: tuple[object, ...]
    negated: bool = False


@dataclass(frozen=True)
class LikeExpr(Node):
    """``operand [NOT] LIKE 'pattern'``."""

    operand: Expr
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class ExistsExpr(Node):
    """``[NOT] EXISTS (SELECT ...)`` — becomes a semi/anti join."""

    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class AndExpr(Node):
    parts: tuple["BoolExpr", ...]


@dataclass(frozen=True)
class OrExpr(Node):
    parts: tuple["BoolExpr", ...]


@dataclass(frozen=True)
class NotExpr(Node):
    part: "BoolExpr"


BoolExpr = (Compare | BetweenExpr | InExpr | LikeExpr | ExistsExpr
            | AndExpr | OrExpr | NotExpr)


# -- statement structure ----------------------------------------------------

@dataclass(frozen=True)
class SelectItem(Node):
    """One select-list entry: an expression with an optional alias."""

    expr: Expr | Star
    alias: str | None = None


@dataclass(frozen=True)
class JoinClause(Node):
    """``<kind> JOIN table ON left = right`` (equi-joins only)."""

    kind: str            # inner | left | semi | anti
    table: str
    on_left: ColumnRef
    on_right: ColumnRef


@dataclass(frozen=True)
class OrderKey(Node):
    """One ORDER BY key with direction."""

    column: ColumnRef
    ascending: bool = True


@dataclass(frozen=True)
class Hint(Node):
    """One planner hint from a ``/*+ ... */`` comment, e.g.
    ``force_path(smooth)`` parsed as name + args."""

    name: str
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class Select(Node):
    """A full (possibly EXPLAIN-prefixed) SELECT statement.

    ``params`` lists every bind parameter of the whole statement
    (subqueries included) in source order — only the *top-level* Select
    carries it, filled in by the parser once the statement is complete.
    ``limit`` may itself be a :class:`ParamRef` (``LIMIT ?``).
    ``normalized`` is the top-level statement's
    :func:`~repro.sql.lexer.normalize_statement`, taken from the tokens
    the parser lexed (it is no part of the tree's equality).
    """

    items: tuple[SelectItem, ...]
    table: str
    joins: tuple[JoinClause, ...] = ()
    where: BoolExpr | None = None
    group_by: tuple[ColumnRef, ...] = ()
    order_by: tuple[OrderKey, ...] = ()
    limit: "int | ParamRef | None" = None
    hints: tuple[Hint, ...] = ()
    explain: bool = False
    params: tuple[ParamRef, ...] = ()
    normalized: str = field(default="", compare=False)

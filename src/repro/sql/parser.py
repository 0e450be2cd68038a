"""Recursive-descent parser for the supported SQL subset.

The grammar (see the README's "SQL interface" table)::

    statement   := [EXPLAIN] SELECT item ("," item)*
                   FROM ident join* [WHERE bool]
                   [GROUP BY column ("," column)*]
                   [ORDER BY column [ASC|DESC] ("," ...)*]
                   [LIMIT number] [";"]
    join        := [INNER | LEFT [OUTER] | SEMI | ANTI] JOIN ident
                   ON column "=" column
    item        := "*" | expr [[AS] ident]
    bool        := or ; or := and (OR and)* ; and := not (AND not)*
    not         := NOT not | predicate
    predicate   := EXISTS "(" statement ")"
                 | expr ( compare-op expr
                        | [NOT] BETWEEN expr AND expr
                        | [NOT] IN "(" literal ("," literal)* ")"
                        | [NOT] LIKE string )
                 | "(" bool ")"
    expr        := term (("+"|"-") term)* ; term := factor (("*"|"/") factor)*
    factor      := ["-"] primary
    primary     := literal | DATE string | column | func "(" (expr|"*") ")"
                 | CASE WHEN bool THEN expr ELSE expr END | "(" expr ")"

Ambiguity between a parenthesised boolean and a parenthesised value
expression is resolved by look-ahead on the token after the matching
structure — the classic trick hand-written SQL parsers use.

Errors carry line/column and a caret; misspelled keywords surface as
"expected keyword X, got identifier 'SELCT'" at the exact spot.
"""

from __future__ import annotations

import dataclasses
import datetime

from repro.errors import SqlError
from repro.sql import ast
from repro.sql.lexer import Token, error_at, normalize_tokens, tokenize

_COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")
_AGG_FUNCS = ("sum", "count", "avg", "min", "max")
_JOIN_KINDS = {"INNER": "inner", "LEFT": "left",
               "SEMI": "semi", "ANTI": "anti"}

#: Days-since-1992-01-01 origin shared with the TPC-H schema helpers.
_DATE_BASE = datetime.date(1992, 1, 1)


def parse(text: str) -> ast.Select:
    """Parse one statement; raises :class:`SqlError` with positions."""
    return _Parser(text).statement()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.hints: list[ast.Hint] = []
        #: Every token, hints included: what the statement normalizes from.
        self.lexed = tokenize(text)
        self.tokens = [t for t in self.lexed if not self._capture_hint(t)]
        self.pos = 0
        self.params: list[ast.ParamRef] = []
        self._param_style: str | None = None  # "positional" | "named"

    def _capture_hint(self, token: Token) -> bool:
        """Pull HINT tokens out of the stream, parsing their bodies."""
        if token.kind != "HINT":
            return False
        self.hints.extend(self._parse_hint_body(token))
        return True

    def _parse_hint_body(self, token: Token) -> list[ast.Hint]:
        """Split ``force_path(smooth), no_inlj`` into Hint nodes.

        Hint *names* are validated by the binder (which knows the
        planner's knobs); here only the shape is checked.
        """
        hints: list[ast.Hint] = []
        body = str(token.value)
        for raw in filter(None, (p.strip() for p in body.split(","))):
            name, args = raw, ()
            if "(" in raw:
                if not raw.endswith(")"):
                    raise error_at(
                        f"malformed hint {raw!r} (missing ')')",
                        self.text, token.line, token.column,
                    )
                name, inner = raw[:-1].split("(", 1)
                args = tuple(
                    a.strip() for a in inner.split(",") if a.strip()
                )
            name = name.strip().lower()
            if not name.replace("_", "").isalnum():
                raise error_at(
                    f"malformed hint {raw!r}", self.text,
                    token.line, token.column,
                )
            hints.append(ast.Hint(token.line, token.column, name, args))
        return hints

    # -- token plumbing -----------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind != "EOF":
            self.pos += 1
        return token

    def _at_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.kind == "KEYWORD" and token.value in words

    def _at_op(self, *ops: str) -> bool:
        token = self._peek()
        return token.kind == "OP" and token.value in ops

    def _accept_keyword(self, *words: str) -> Token | None:
        if self._at_keyword(*words):
            return self._next()
        return None

    def _accept_op(self, *ops: str) -> Token | None:
        if self._at_op(*ops):
            return self._next()
        return None

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not self._at_keyword(word):
            raise self._error(f"expected keyword {word}, got "
                              f"{token.describe()}", token)
        return self._next()

    def _expect_op(self, op: str) -> Token:
        token = self._peek()
        if not self._at_op(op):
            raise self._error(f"expected {op!r}, got {token.describe()}",
                              token)
        return self._next()

    def _expect_ident(self, what: str) -> Token:
        token = self._peek()
        if token.kind != "IDENT":
            raise self._error(f"expected {what}, got {token.describe()}",
                              token)
        return self._next()

    def _error(self, message: str, token: Token | None = None) -> SqlError:
        token = token or self._peek()
        return error_at(message, self.text, token.line, token.column)

    # -- statement ----------------------------------------------------------

    def statement(self) -> ast.Select:
        explain = self._accept_keyword("EXPLAIN") is not None
        select = self._select(top_level=True)
        self._accept_op(";")
        tail = self._peek()
        if tail.kind != "EOF":
            raise self._error(
                f"unexpected {tail.describe()} after end of statement", tail
            )
        return dataclasses.replace(
            select, explain=explain, params=tuple(self.params),
            normalized=normalize_tokens(self.lexed),
        )

    def _select(self, top_level: bool = False) -> ast.Select:
        start = self._peek()
        self._expect_keyword("SELECT")
        items = [self._select_item()]
        while self._accept_op(","):
            items.append(self._select_item())
        self._expect_keyword("FROM")
        table = self._expect_ident("table name").value
        joins: list[ast.JoinClause] = []
        while self._at_keyword("JOIN", "INNER", "LEFT", "SEMI", "ANTI"):
            joins.append(self._join())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._bool_expr()
        group_by: tuple[ast.ColumnRef, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(self._column_list())
        order_by: list[ast.OrderKey] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                col = self._column_ref()
                ascending = True
                if self._accept_keyword("DESC"):
                    ascending = False
                else:
                    self._accept_keyword("ASC")
                order_by.append(ast.OrderKey(col.line, col.col, col,
                                             ascending))
                if not self._accept_op(","):
                    break
        limit: int | ast.ParamRef | None = None
        if self._accept_keyword("LIMIT"):
            token = self._peek()
            if token.kind == "PARAM":
                limit = self._param_ref()
            elif token.kind == "NUMBER" and isinstance(token.value, int):
                self._next()
                limit = token.value
            else:
                raise self._error(
                    "LIMIT takes an integer or a parameter, got "
                    f"{token.describe()}", token
                )
        hints = tuple(self.hints) if top_level else ()
        return ast.Select(
            start.line, start.column, tuple(items), str(table),
            tuple(joins), where, group_by, tuple(order_by), limit, hints,
        )

    def _select_item(self) -> ast.SelectItem:
        token = self._peek()
        if self._accept_op("*"):
            return ast.SelectItem(token.line, token.column,
                                  ast.Star(token.line, token.column))
        expr = self._value_expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias").value
        elif self._peek().kind == "IDENT":
            alias = self._next().value
        return ast.SelectItem(token.line, token.column, expr,
                              str(alias) if alias else None)

    def _join(self) -> ast.JoinClause:
        start = self._peek()
        kind = "inner"
        word = self._accept_keyword("INNER", "LEFT", "SEMI", "ANTI")
        if word is not None:
            kind = _JOIN_KINDS[str(word.value)]
            if word.value == "LEFT":
                self._accept_keyword("OUTER")
        self._expect_keyword("JOIN")
        table = self._expect_ident("table name").value
        self._expect_keyword("ON")
        left = self._column_ref()
        self._expect_op("=")
        right = self._column_ref()
        return ast.JoinClause(start.line, start.column, kind, str(table),
                              left, right)

    def _column_list(self) -> list[ast.ColumnRef]:
        cols = [self._column_ref()]
        while self._accept_op(","):
            cols.append(self._column_ref())
        return cols

    def _column_ref(self) -> ast.ColumnRef:
        token = self._expect_ident("column name")
        name, table = str(token.value), None
        if self._at_op("."):
            self._next()
            col = self._expect_ident("column name")
            table, name = name, str(col.value)
        return ast.ColumnRef(token.line, token.column, name, table)

    # -- boolean expressions --------------------------------------------------

    def _bool_expr(self) -> ast.BoolExpr:
        return self._or_expr()

    def _or_expr(self) -> ast.BoolExpr:
        first = self._and_expr()
        parts = [first]
        while self._accept_keyword("OR"):
            parts.append(self._and_expr())
        if len(parts) == 1:
            return first
        return ast.OrExpr(first.line, first.col, tuple(parts))

    def _and_expr(self) -> ast.BoolExpr:
        first = self._not_expr()
        parts = [first]
        while self._accept_keyword("AND"):
            parts.append(self._not_expr())
        if len(parts) == 1:
            return first
        return ast.AndExpr(first.line, first.col, tuple(parts))

    def _not_expr(self) -> ast.BoolExpr:
        token = self._accept_keyword("NOT")
        if token is not None:
            if self._at_keyword("EXISTS"):
                exists = self._exists()
                return ast.ExistsExpr(token.line, token.column,
                                      exists.subquery, negated=True)
            return ast.NotExpr(token.line, token.column, self._not_expr())
        return self._predicate()

    def _exists(self) -> ast.ExistsExpr:
        token = self._expect_keyword("EXISTS")
        lparen = self._expect_op("(")
        sub = self._select()
        rparen = self._expect_op(")")
        # Hints are collected text-wide at lex time; one positioned
        # inside this subquery would silently reshape the *outer*
        # statement's plan, so refuse it where the user wrote it.
        for hint in self.hints:
            if (lparen.line, lparen.column) < (hint.line, hint.col) \
                    < (rparen.line, rparen.column):
                raise error_at(
                    "planner hints are only supported in the top-level "
                    "statement, not inside subqueries",
                    self.text, hint.line, hint.col,
                )
        return ast.ExistsExpr(token.line, token.column, sub)

    def _predicate(self) -> ast.BoolExpr:
        if self._at_keyword("EXISTS"):
            return self._exists()
        if self._at_op("(") and self._parenthesized_bool():
            self._next()
            inner = self._bool_expr()
            self._expect_op(")")
            return inner
        operand = self._value_expr()
        token = self._peek()
        if token.kind == "OP" and token.value in _COMPARE_OPS:
            self._next()
            right = self._value_expr()
            return ast.Compare(token.line, token.column, str(token.value),
                               operand, right)
        negated = self._accept_keyword("NOT") is not None
        if self._accept_keyword("BETWEEN"):
            lo = self._value_expr()
            self._expect_keyword("AND")
            hi = self._value_expr()
            return ast.BetweenExpr(token.line, token.column, operand,
                                   lo, hi, negated)
        if self._accept_keyword("IN"):
            self._expect_op("(")
            values = [self._literal_value()]
            while self._accept_op(","):
                values.append(self._literal_value())
            self._expect_op(")")
            return ast.InExpr(token.line, token.column, operand,
                              tuple(values), negated)
        if self._accept_keyword("LIKE"):
            pattern = self._peek()
            if pattern.kind != "STRING":
                raise self._error(
                    f"LIKE takes a string pattern, got {pattern.describe()}",
                    pattern,
                )
            self._next()
            return ast.LikeExpr(token.line, token.column, operand,
                                str(pattern.value), negated)
        raise self._error(
            "expected a comparison, BETWEEN, IN or LIKE, got "
            f"{token.describe()}", token,
        )

    def _parenthesized_bool(self) -> bool:
        """Decide whether the '(' at the cursor opens a *boolean* group.

        Scans ahead to the matching ')' at depth 0: if a boolean-only
        token (AND/OR/NOT/comparison/BETWEEN/IN/LIKE/EXISTS) occurs
        before it closes, the group is boolean; otherwise it is a value
        expression like ``(1 - l_discount)``.
        """
        depth = 0
        for ahead in range(len(self.tokens) - self.pos):
            token = self._peek(ahead)
            if token.kind == "OP" and token.value == "(":
                depth += 1
            elif token.kind == "OP" and token.value == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif depth >= 1:
                if token.kind == "KEYWORD" and token.value in (
                        "AND", "OR", "NOT", "BETWEEN", "IN", "LIKE",
                        "EXISTS"):
                    return True
                if token.kind == "OP" and token.value in _COMPARE_OPS:
                    return True
            if token.kind == "EOF":
                break
        return False

    # -- value expressions ----------------------------------------------------

    def _value_expr(self) -> ast.Expr:
        left = self._term()
        while self._at_op("+", "-"):
            op = self._next()
            right = self._term()
            left = ast.Arith(op.line, op.column, str(op.value), left, right)
        return left

    def _term(self) -> ast.Expr:
        left = self._factor()
        while self._at_op("*", "/"):
            op = self._next()
            right = self._factor()
            left = ast.Arith(op.line, op.column, str(op.value), left, right)
        return left

    def _factor(self) -> ast.Expr:
        minus = self._accept_op("-")
        expr = self._primary()
        if minus is not None:
            if isinstance(expr, ast.Literal) and isinstance(
                    expr.value, (int, float)):
                return ast.Literal(minus.line, minus.column, -expr.value)
            return ast.Negate(minus.line, minus.column, expr)
        return expr

    def _primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind in ("NUMBER", "STRING"):
            self._next()
            return ast.Literal(token.line, token.column, token.value)
        if token.kind == "PARAM":
            return self._param_ref()
        if self._at_keyword("DATE"):
            return self._date_literal()
        if self._at_keyword("CASE"):
            return self._case()
        if self._accept_op("("):
            inner = self._value_expr()
            self._expect_op(")")
            return inner
        if token.kind == "IDENT":
            if (token.value.lower() in _AGG_FUNCS
                    and self._peek(1).kind == "OP"
                    and self._peek(1).value == "("):
                return self._func_call()
            return self._column_ref()
        raise self._error(f"expected an expression, got {token.describe()}",
                          token)

    def _date_literal(self) -> ast.Literal:
        token = self._expect_keyword("DATE")
        text = self._peek()
        if text.kind != "STRING":
            raise self._error(
                f"DATE takes a 'YYYY-MM-DD' string, got {text.describe()}",
                text,
            )
        self._next()
        try:
            parsed = datetime.date.fromisoformat(str(text.value))
        except ValueError:
            raise self._error(
                f"invalid date literal {text.value!r} "
                "(expected 'YYYY-MM-DD')", text,
            ) from None
        # Engine convention: dates are integer days since 1992-01-01.
        return ast.Literal(token.line, token.column,
                           (parsed - _DATE_BASE).days)

    def _func_call(self) -> ast.FuncCall:
        name = self._next()
        self._expect_op("(")
        arg: ast.Expr | ast.Star
        star = self._accept_op("*")
        if star is not None:
            arg = ast.Star(star.line, star.column)
        else:
            arg = self._value_expr()
        self._expect_op(")")
        return ast.FuncCall(name.line, name.column,
                            str(name.value).lower(), arg)

    def _case(self) -> ast.Case:
        token = self._expect_keyword("CASE")
        self._expect_keyword("WHEN")
        condition = self._bool_expr()
        self._expect_keyword("THEN")
        then = self._value_expr()
        self._expect_keyword("ELSE")
        otherwise = self._value_expr()
        self._expect_keyword("END")
        return ast.Case(token.line, token.column, condition, then, otherwise)

    def _param_ref(self) -> ast.ParamRef:
        """Consume one PARAM token, assigning its statement-order slot."""
        token = self._next()
        name = token.value if token.value is None else str(token.value)
        style = "named" if name is not None else "positional"
        if self._param_style is not None and style != self._param_style:
            raise self._error(
                "cannot mix '?' and ':name' parameter styles in one "
                "statement", token,
            )
        self._param_style = style
        ref = ast.ParamRef(token.line, token.column,
                           index=len(self.params), name=name)
        self.params.append(ref)
        return ref

    def _literal_value(self) -> object:
        token = self._peek()
        if token.kind == "PARAM":
            return self._param_ref()
        if token.kind in ("NUMBER", "STRING"):
            self._next()
            return token.value
        if self._at_keyword("DATE"):
            return self._date_literal().value
        if self._at_op("-"):
            self._next()
            number = self._peek()
            if number.kind == "NUMBER":
                self._next()
                return -number.value  # type: ignore[operator]
        raise self._error(f"expected a literal, got {token.describe()}",
                          token)

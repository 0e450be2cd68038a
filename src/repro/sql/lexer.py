"""Hand-written SQL lexer.

Produces a flat token stream with 1-based line/column positions, which the
parser threads into every error message.  Planner hints travel in
``/*+ ... */`` comments; the lexer keeps them as ``HINT`` tokens (ordinary
``/* ... */`` and ``--`` comments are skipped), so the parser can attach
them to the statement without the grammar knowing about hint syntax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import SqlError

#: Words with grammatical meaning; everything else is an identifier
#: (aggregate function names stay identifiers — they matter only in
#: front of a parenthesis).
KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "BETWEEN", "IN",
    "LIKE", "AS", "JOIN", "INNER", "LEFT", "OUTER", "SEMI", "ANTI",
    "ON", "GROUP", "BY", "ORDER", "ASC", "DESC", "LIMIT", "EXISTS",
    "CASE", "WHEN", "THEN", "ELSE", "END", "DATE", "EXPLAIN",
})

#: Multi-character operators first so maximal munch wins.
_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">",
              "+", "-", "*", "/", "(", ")", ",", ".", ";")


@dataclass(frozen=True)
class Token:
    """One lexeme: kind, normalized value, and its source position."""

    kind: str          # KEYWORD | IDENT | NUMBER | STRING | OP | HINT
                       # | PARAM | EOF
    value: object      # keyword/op text, identifier, parsed literal,
                       # hint body, parameter name (None for '?')
    line: int          # 1-based
    column: int        # 1-based
    text: str = ""     # the raw lexeme, for error messages

    def describe(self) -> str:
        """Human-readable form for 'expected X, got Y' messages."""
        if self.kind == "EOF":
            return "end of input"
        if self.kind == "STRING":
            return f"string {self.value!r}"
        if self.kind == "KEYWORD":
            return f"keyword {self.value}"
        if self.kind == "IDENT":
            return f"identifier {self.value!r}"
        if self.kind == "PARAM":
            return f"parameter {self.text}"
        return repr(self.text or str(self.value))


def error_at(message: str, text: str, line: int, column: int) -> SqlError:
    """A position-annotated SqlError with a caret under the offender."""
    lines = text.splitlines() or [""]
    snippet = lines[line - 1] if 0 < line <= len(lines) else ""
    caret = " " * (column - 1) + "^"
    return SqlError(
        f"{message} at line {line}, column {column}\n"
        f"  {snippet}\n  {caret}"
    )


class Lexer:
    """Tokenizes one SQL statement string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- character plumbing -------------------------------------------------

    def _peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else ""

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _error(self, message: str, line: int | None = None,
               column: int | None = None) -> SqlError:
        return error_at(message, self.text,
                        self.line if line is None else line,
                        self.column if column is None else column)

    # -- token production ---------------------------------------------------

    def tokens(self) -> list[Token]:
        """The full token list, ending with one EOF token."""
        out = list(self._scan())
        out.append(Token("EOF", None, self.line, self.column))
        return out

    def _scan(self) -> Iterator[Token]:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
                continue
            if ch == "-" and self._peek(1) == "-":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
                continue
            if ch == "/" and self._peek(1) == "*":
                token = self._block_comment()
                if token is not None:
                    yield token
                continue
            if ch == "'":
                yield self._string()
                continue
            if ch == "?" or ch == ":":
                yield self._param()
                continue
            if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
                yield self._number()
                continue
            if ch.isalpha() or ch == "_":
                yield self._word()
                continue
            op = self._operator()
            if op is not None:
                yield op
                continue
            raise self._error(f"unexpected character {ch!r}")

    def _block_comment(self) -> Token | None:
        """Skip ``/* ... */``; return a HINT token for ``/*+ ... */``."""
        line, column = self.line, self.column
        self._advance(2)  # consume '/*'
        is_hint = self._peek() == "+"
        if is_hint:
            self._advance()
        start = self.pos
        while self.pos < len(self.text):
            if self._peek() == "*" and self._peek(1) == "/":
                body = self.text[start:self.pos].strip()
                self._advance(2)
                if is_hint:
                    return Token("HINT", body, line, column,
                                 text=f"/*+ {body} */")
                return None
            self._advance()
        # The caret belongs where the '*/' is missing — end of input —
        # with the opening position named, not under the opener (which
        # reads as "this comment is illegal here").
        what = "hint comment" if is_hint else "comment"
        raise self._error(
            f"unterminated {what} (opened at line {line}, "
            f"column {column})"
        )

    def _string(self) -> Token:
        line, column = self.line, self.column
        self._advance()  # opening quote
        parts: list[str] = []
        while self.pos < len(self.text):
            ch = self._peek()
            if ch == "'":
                if self._peek(1) == "'":  # '' escapes a quote
                    parts.append("'")
                    self._advance(2)
                    continue
                self._advance()
                value = "".join(parts)
                return Token("STRING", value, line, column,
                             text=f"'{value}'")
            parts.append(ch)
            self._advance()
        # As with comments: the defect is the missing closing quote at
        # end of input; point there and name where the literal opened.
        raise self._error(
            f"unterminated string literal (opened at line {line}, "
            f"column {column})"
        )

    def _param(self) -> Token:
        """``?`` (positional) or ``:name`` (named) bind parameters."""
        line, column = self.line, self.column
        if self._peek() == "?":
            self._advance()
            return Token("PARAM", None, line, column, text="?")
        self._advance()  # ':'
        if not (self._peek().isalpha() or self._peek() == "_"):
            raise self._error(
                "expected a parameter name after ':'", line, column
            )
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        name = self.text[start:self.pos]
        return Token("PARAM", name, line, column, text=f":{name}")

    def _number(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        while self._peek().isdigit():
            self._advance()
        is_float = False
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.text[start:self.pos]
        if self._peek().isalpha() or self._peek() == "_":
            raise self._error(
                f"malformed number {text + self._peek()!r}", line, column
            )
        value: object = float(text) if is_float else int(text)
        return Token("NUMBER", value, line, column, text=text)

    def _word(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.text[start:self.pos]
        upper = text.upper()
        if upper in KEYWORDS:
            return Token("KEYWORD", upper, line, column, text=text)
        return Token("IDENT", text, line, column, text=text)

    def _operator(self) -> Token | None:
        line, column = self.line, self.column
        for op in _OPERATORS:
            if self.text.startswith(op, self.pos):
                self._advance(len(op))
                normalized = "!=" if op == "<>" else op
                return Token("OP", normalized, line, column, text=op)
        return None


def tokenize(text: str) -> list[Token]:
    """Lex ``text`` into a token list (EOF-terminated)."""
    return Lexer(text).tokens()


def normalize_statement(text: str) -> str:
    """The whitespace/comment-insensitive canonical form of a statement.

    Re-spells the token stream with single spaces: keywords uppercase,
    identifiers verbatim (the catalog is case-sensitive), literals in
    canonical form, planner hints kept (they change the plan, so they
    must distinguish cache keys), plain comments dropped.  Two statements
    normalize equal exactly when the parser would produce the same AST —
    the property the plan cache keys on.
    """
    return normalize_tokens(tokenize(text))


def normalize_tokens(tokens: list[Token]) -> str:
    """:func:`normalize_statement` of the text ``tokens`` were lexed
    from (hints included): the parser's way to normalize without lexing
    again."""
    parts: list[str] = []
    for token in tokens:
        if token.kind == "EOF":
            break
        if token.kind == "KEYWORD":
            parts.append(str(token.value))
        elif token.kind == "STRING":
            escaped = str(token.value).replace("'", "''")
            parts.append(f"'{escaped}'")
        elif token.kind == "HINT":
            parts.append(f"/*+ {token.value} */")
        elif token.kind == "PARAM":
            parts.append(token.text)
        elif token.kind == "NUMBER":
            parts.append(repr(token.value))
        else:  # IDENT, OP
            parts.append(token.text or str(token.value))
    return " ".join(parts)

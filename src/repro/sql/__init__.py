"""SQL front end: lexer → parser → binder → :class:`QuerySpec`.

The paper's contract is declarative: users state *what* they want and the
engine picks access paths safely at runtime (§IV-B).  PR 2 built the
planner half; this package adds the textual half, so a statement like::

    SELECT l_returnflag, sum(l_quantity) AS qty
    FROM lineitem
    WHERE l_shipdate <= DATE '1998-09-02'
    GROUP BY l_returnflag

lowers onto the very same :class:`~repro.optimizer.logical.QuerySpec` /
:meth:`~repro.optimizer.planner.Planner.plan_query` path the fluent API
uses — measurement-identically, as the TPC-H tests assert.  Planner
hints ride in comments (``/*+ force_path(smooth) */``, ``/*+ no_inlj */``)
and ``EXPLAIN SELECT ...`` renders the estimated-vs-actual plan tree.

Statements may carry bind parameters — ``?`` positional or ``:name``
named — which bind once into a *parameterized* spec and are substituted
per execution (no re-lex/parse/bind), the substrate of the session
layer's prepared statements.

Entry points:

* :func:`compile_statement` — text → :class:`BoundStatement` (spec +
  hint-derived options + explain flag + parameter slots); counted on
  ``db.sql_compile_count``.
* :meth:`repro.database.Database.connect` — the
  Connection/Cursor/PreparedStatement session layer applications use.
* ``python -m repro.sql`` — an interactive REPL over a loaded workload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sql.binder import Binder, BoundStatement, VALID_HINTS
from repro.sql.lexer import Lexer, Token, normalize_statement, tokenize
from repro.sql.parser import parse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.database import Database

__all__ = [
    "Binder",
    "BoundStatement",
    "Lexer",
    "Token",
    "VALID_HINTS",
    "compile_statement",
    "normalize_statement",
    "parse",
    "tokenize",
]


def compile_statement(db: "Database", text: str) -> BoundStatement:
    """Parse and bind one SQL statement against ``db``'s catalog.

    Every call counts on ``db.sql_compile_count`` — the observable that
    lets tests assert a prepared statement really compiled only once.
    """
    db.sql_compile_count += 1
    return Binder(db, text).bind(parse(text))

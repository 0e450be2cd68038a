"""A compile lexes its text once.

The parser keeps the token list it lexed — hints included — and the
plan-cache key (``BoundStatement.normalized``) is spelled from it, so
``compile_statement`` never runs the lexer a second time.  The key must
be byte-identical to what re-lexing the text gives: the reference below
is that function, as it was, over the engine's own statements, the
benchmark's, and a generated corpus of spacing, comments, hints,
``:params`` and string escapes.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import (
    compile_statement,
    lexer,
    normalize_statement,
    parse,
    tokenize,
)
from repro.workloads.tpch.queries import SQL_QUERIES

PERF = Path(__file__).resolve().parent.parent / "perf"


def reference_normalize(text: str) -> str:
    """``normalize_statement`` as a second lex of the text computed it."""
    parts: list[str] = []
    for token in tokenize(text):
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


def _perf_texts() -> list[str]:
    sys.path.insert(0, str(PERF))
    try:
        import builders
        import workloads
    finally:
        sys.path.remove(str(PERF))
    sweep = [workloads.ScanSweep.SQL.format(path=p)
             for p in workloads.ScanSweep.PATHS]
    lookup = [workloads.PointLookup.SQL.format(lo=":lo", hi=":hi"),
              workloads.PointLookup.SQL.format(lo=17, hi=4711)]
    return sweep + lookup + [builders.SERVE_SQL, builders.SERVE_FORCED_SQL,
                             "SELECT c1, c2 FROM micro"]


@pytest.fixture(scope="module")
def tpch():
    from repro.experiments.fig1 import make_tuned_tpch
    return make_tuned_tpch(scale_factor=0.002)


def _count_lexes(monkeypatch) -> list:
    calls = []
    real = lexer.Lexer.tokens

    def counted(self):
        calls.append(self.text)
        return real(self)

    monkeypatch.setattr(lexer.Lexer, "tokens", counted)
    return calls


@pytest.mark.parametrize("name", sorted(SQL_QUERIES))
def test_one_compile_lexes_once_and_keys_as_before(tpch, monkeypatch, name):
    text = SQL_QUERIES[name]
    calls = _count_lexes(monkeypatch)
    bound = compile_statement(tpch.db, text)
    assert calls == [text]
    monkeypatch.undo()
    assert bound.normalized == reference_normalize(text)


def test_the_benchmark_statements_key_as_before():
    for text in _perf_texts():
        assert parse(text).normalized == reference_normalize(text)


_SPACE = st.sampled_from([" ", "  ", "\n", "\t ", " /* note */ ",
                          " -- note\n", "\r\n"])
_WORD = st.sampled_from(["select", "SELECT", "Select"])


@st.composite
def statements(draw):
    """A statement spelled with arbitrary spacing, comments and case."""
    sep = lambda: draw(_SPACE)  # noqa: E731
    kw = lambda word: draw(st.sampled_from(  # noqa: E731
        [word.lower(), word.upper(), word.capitalize()]))
    named = draw(st.booleans())
    param = (lambda: ":" + draw(st.sampled_from(["lo", "hi", "p_1"]))) \
        if named else (lambda: "?")
    literal = st.one_of(
        st.integers(0, 10**6).map(str),
        st.sampled_from(["1.50", "0.05", ".5", "3.0"]),
        st.text(alphabet="ab' -_", max_size=6).map(
            lambda s: "'" + s.replace("'", "''") + "'"),
    )
    conds = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">="]))
        rhs = param() if draw(st.booleans()) else draw(literal)
        conds.append(f"{draw(st.sampled_from(['a', 'b', 'tag']))}"
                     f"{sep()}{op}{sep()}{rhs}")
    parts = [draw(_WORD), sep()]
    if draw(st.booleans()):
        hint = draw(st.sampled_from(["force_path(smooth)", "no_inlj",
                                     "force_path( index ), no_inlj"]))
        parts += ["/*+", draw(st.sampled_from([" ", ""])), hint, " */", sep()]
    parts += ["a", sep(), ",", sep(), "b", sep(), kw("from"), sep(), "t",
              sep(), kw("where"), sep(),
              f"{sep()}{kw('and')}{sep()}".join(conds)]
    if draw(st.booleans()):
        parts += [sep(), kw("order"), sep(), kw("by"), sep(), "a"]
    if draw(st.booleans()):
        parts += [sep(), kw("limit"), sep(), str(draw(st.integers(0, 99)))]
    if draw(st.booleans()):
        parts += [sep(), ";"]
    return "".join(parts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(statements())
def test_generated_statements_key_as_before(text):
    want = reference_normalize(text)
    assert parse(text).normalized == want
    assert normalize_statement(text) == want

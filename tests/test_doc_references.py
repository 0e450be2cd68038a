"""Cross-references in docstrings and docs resolve in the tree.

* Every Sphinx role target (``:class:``, ``:func:``, ``:meth:``,
  ``:attr:``, ``:mod:``, ``:data:``, ``:exc:``) in a ``src/`` docstring
  names something that exists: a ``repro.…`` target by import plus
  ``getattr``, a bare one against the enclosing classes and then the
  module.  An ``:attr:`` may name an attribute a class's methods assign
  (``self.name = …``).
* Every backticked repo path in ``README.md`` and the verify skill exists
  (a bare file name anywhere in the tree, a relative one under the root or
  ``src/repro``), and every ``path.py::Name`` names a module-level
  function, class or assignment there (``Class.member`` inside a class).

``perf/README.md`` is not covered: it belongs to the wall-clock benchmark,
which changes only with the benchmark itself, and its stale references
(the deleted ``experiments/batch_bench.py`` and an old tier-1 test count)
wait for that change.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
DOCS = ("README.md", ".claude/skills/verify/SKILL.md")

ROLE = re.compile(r":(class|func|meth|attr|mod|data|exc):`~?([^`]+)`")
#: A backticked token that names a repo file or directory, with an
#: optional ``::Name``.
PATH = re.compile(r"`([\w.*/-]+(?:\.(?:py|md|json|txt|yml|toml)|/))"
                  r"(?:::([\w.]+))?`")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] in ("__init__", "__main__"):  # never run a __main__
        parts = parts[:-1]
    return ".".join(parts)


def _lookup(obj: object, names: list[str]) -> object:
    for i, name in enumerate(names):
        try:
            obj = getattr(obj, name)
        except AttributeError:
            if i == len(names) - 1 and _assigned_on_self(obj, name):
                return None
            raise
    return obj


def _assigned_on_self(cls: object, name: str) -> bool:
    """True when a method of ``cls`` (or a base) assigns ``self.name``."""
    pattern = re.compile(rf"self\.{name}\s*(?::[^=\n]+)?=[^=]")
    return inspect.isclass(cls) and any(
        pattern.search(inspect.getsource(base))
        for base in cls.__mro__ if base.__module__.startswith("repro"))


def _resolve(target: str, scopes: list[object]) -> object:
    parts = target.split(".")
    if parts[0] == "repro":
        for i in range(len(parts), 0, -1):
            try:
                module = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                continue
            return _lookup(module, parts[i:])
    for scope in scopes:
        try:
            return _lookup(scope, parts)
        except AttributeError:
            pass
    raise LookupError(target)


def _docstrings(path: Path):
    """``(docstring, scopes)`` for the module and every class and function
    in ``path``; scopes are the enclosing classes, innermost first, then
    the module and builtins."""
    module = importlib.import_module(_module_name(path))

    def visit(node, scopes):
        doc = ast.get_docstring(node, clean=False)
        if doc:
            yield doc, scopes
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child,
                                 [getattr(scopes[0], child.name), *scopes])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, scopes)

    yield from visit(ast.parse(path.read_text()), [module, builtins])


def test_docstring_role_targets_resolve():
    unresolved, seen = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for doc, scopes in _docstrings(path):
            for match in ROLE.finditer(doc):
                seen += 1
                # "title <target>" form; a target may wrap across lines.
                target = re.sub(r"\s+", "",
                                match.group(2).rpartition("<")[2].rstrip(">"))
                try:
                    _resolve(target, scopes)
                except (LookupError, AttributeError):
                    unresolved.append(
                        f"{path.relative_to(ROOT)}: :{match.group(1)}:"
                        f"`{target}`")
    assert seen > 300, seen
    assert unresolved == []


def _defines(path: Path, dotted: str) -> bool:
    """True when ``path`` defines ``dotted`` at module level (a function,
    class or assignment; ``Class.member`` inside a class body)."""
    body = ast.parse(path.read_text()).body
    for name in dotted.split("."):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node.name == name:
                body = getattr(node, "body", [])
                break
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            if any(isinstance(t, ast.Name) and t.id == name
                   for t in targets):
                body = []
                break
        else:
            return False
    return True


def _repo_paths(relative: str) -> list[Path]:
    """What a doc's path may mean: a bare file name anywhere in the tree,
    else relative to the root or to ``src/repro``; globs expanded."""
    if "/" not in relative.rstrip("/"):
        return [p for p in ROOT.rglob(relative) if ".git" not in p.parts]
    return [p for base in (ROOT, PACKAGE) for p in base.glob(relative)]


@pytest.mark.parametrize("doc", DOCS)
def test_doc_paths_and_names_resolve(doc):
    text = (ROOT / doc).read_text()
    broken, seen = [], 0
    for match in PATH.finditer(text):
        relative, name = match.groups()
        if relative.startswith("/"):  # a host path, not a repo one
            continue
        seen += 1
        paths = _repo_paths(relative)
        if not paths or (name and not any(_defines(p, name)
                                          for p in paths)):
            broken.append(match.group(0))
    assert seen > 5, seen
    assert broken == []

"""The census's rules (``tests/census.py``), checked on a small synthetic
package: which defs it counts, the line a profile hook sees for each, and
when a ``SURFACE`` entry covers, leaves unreached or goes stale.  The
drive itself (benchmarks, perf smoke, examples) is too slow for tier-1
and runs as its own CI job."""

from __future__ import annotations

import ast
import importlib.util
import textwrap
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "census", Path(__file__).with_name("census.py"))
census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census)

INIT = textwrap.dedent('''\
    def top():
        return 1
''')

MOD = textwrap.dedent('''\
    import functools
    from abc import ABC, abstractmethod


    def plain(x):
        def inner():
            return x
        return inner


    @functools.lru_cache
    def cached(x):
        return x


    def stub():
        """Nothing to enter."""


    def f():
        return 4


    def fg():
        return 3


    class Base(ABC):
        @abstractmethod
        def run(self):
            """Subclasses run."""

        def start(self):
            return self.run()

        class Inner:
            def deep(self):
                return 2
''')

NAMES = {"repro.top", "repro.mod.plain", "repro.mod.cached", "repro.mod.f",
         "repro.mod.fg", "repro.mod.Base.start", "repro.mod.Base.Inner.deep"}


@pytest.fixture()
def package(tmp_path, monkeypatch):
    root = tmp_path / "repro"
    root.mkdir()
    (root / "__init__.py").write_text(INIT)
    (root / "mod.py").write_text(MOD)
    monkeypatch.setattr(census, "SRC", tmp_path)
    monkeypatch.setattr(census, "SURFACE", {})
    return root


def entered(*names: str) -> set[tuple[str, int]]:
    defs = census.definitions()
    return {(str(defs[n][0]), defs[n][1]) for n in names}


def run(surface: dict[str, str], *names: str) -> dict:
    census.SURFACE.update(surface)
    return census.census(entered(*names))


@pytest.mark.parametrize("source,bodiless", [
    ("def f():\n    ...", True),
    ("def f():\n    pass", True),
    ("def f():\n    '''Only a docstring.'''", True),
    ("def f():\n    '''Docstring.'''\n    ...", True),
    ("@abstractmethod\ndef f():\n    return 1", True),
    ("@abc.abstractmethod\ndef f():\n    return 1", True),
    ("def f():\n    '''Docstring.'''\n    return 1", False),
    ("@staticmethod\ndef f():\n    pass\n    return None", False),
], ids=["ellipsis", "pass", "docstring", "docstring-ellipsis", "abstract",
        "abc-abstract", "body", "decorated-body"])
def test_declaration_is_a_def_with_no_code_to_enter(source, bodiless):
    node = ast.parse(source).body[0]
    assert census.declaration(node) is bodiless


def test_definitions_lists_module_functions_and_methods_not_closures(
        package):
    # ``inner`` is a closure, ``stub`` has only a docstring and
    # ``Base.run`` is abstract: none of them is counted.
    assert set(census.definitions()) == NAMES


def test_a_def_is_keyed_by_the_line_its_code_object_reports(package):
    # The profile hook sees ``co_firstlineno``, which for a decorated def
    # is its first decorator's line.
    defs = census.definitions()
    path = package / "mod.py"
    code = compile(MOD, str(path), "exec")
    firsts = {c.co_name: c.co_firstlineno for c in code.co_consts
              if hasattr(c, "co_firstlineno")}
    lines = MOD.splitlines()
    assert defs["repro.mod.cached"] == (
        path.resolve(), firsts["cached"], 3)
    assert lines[firsts["cached"] - 1] == "@functools.lru_cache"
    assert defs["repro.mod.plain"] == (path.resolve(), firsts["plain"], 4)
    assert defs["repro.top"] == ((package / "__init__.py").resolve(), 1, 2)


def test_an_unlisted_def_nothing_enters_is_unreached(package):
    report = run({}, *(NAMES - {"repro.mod.fg", "repro.mod.plain"}))
    assert report["unreached"] == ["repro.mod.fg", "repro.mod.plain"]
    assert report["stale_surface"] == []
    assert (report["functions"], report["entered"]) == (7, 5)
    assert (report["not_entered"], report["not_entered_lines"]) == (2, 6)
    assert report["surface"] == 0


def test_a_class_prefix_covers_its_methods_and_nested_classes(package):
    report = run({"repro.mod.Base": census.REPORTING},
                 "repro.top", "repro.mod.plain", "repro.mod.cached",
                 "repro.mod.f", "repro.mod.fg")
    assert report["unreached"] == []
    assert report["stale_surface"] == []
    assert report["surface"] == 2


def test_a_prefix_covers_only_on_a_dotted_boundary(package):
    report = run({"repro.mod.f": census.ERROR},
                 *(NAMES - {"repro.mod.f", "repro.mod.fg"}))
    assert report["unreached"] == ["repro.mod.fg"]
    assert report["stale_surface"] == []


def test_a_module_prefix_covers_the_package_init(package):
    report = run({"repro": census.API})
    assert report["unreached"] == []
    assert report["stale_surface"] == []
    assert report["surface"] == len(NAMES)


def test_an_entry_the_drive_now_enters_completely_is_stale(package):
    report = run({"repro.mod.Base": census.REPORTING,
                  "repro.mod.fg": census.ERROR},
                 *(NAMES - {"repro.mod.fg"}))
    assert report["stale_surface"] == ["repro.mod.Base"]
    assert report["unreached"] == []


def test_an_entry_naming_nothing_is_stale(package):
    report = run({"repro.mod.gone": census.ERROR,
                  "repro.mod.Base.Inner.deep.x": census.ERROR}, *NAMES)
    assert report["stale_surface"] == ["repro.mod.Base.Inner.deep.x",
                                       "repro.mod.gone"]


def test_an_entry_with_a_reason_outside_the_set_is_stale(package):
    # It still covers what it names, so the def is reported once: as a
    # stale entry, not also as unreached.
    report = run({"repro.mod.fg": "kept just in case"},
                 *(NAMES - {"repro.mod.fg"}))
    assert report["stale_surface"] == ["repro.mod.fg"]
    assert report["unreached"] == []


def test_every_surface_entry_has_an_allowed_reason():
    assert census.SURFACE
    assert set(census.SURFACE.values()) <= census.REASONS


def test_every_surface_entry_names_a_definition_in_src():
    defs = census.definitions()
    assert [entry for entry in census.SURFACE
            if not any(n == entry or n.startswith(entry + ".")
                       for n in defs)] == []

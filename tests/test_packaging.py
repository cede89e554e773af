"""Packaging metadata and API surface: every entry point pyproject.toml
declares must exist, and every public function of the library must have a
caller in the library or the benchmark."""

import ast
import importlib
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_declared_scripts_import():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _public_definitions(tree):
    """Names of the module's public functions and its classes' public methods."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield item.name


def _references(tree):
    """Every name the module uses, reads an attribute by or imports; the
    text of docstrings and comments is not code and does not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def _uncalled(library, callers):
    """Public definitions of the library trees that no tree of library or
    callers references, sorted, and the number of public definitions."""
    defined = {name for tree in library for name in _public_definitions(tree)}
    used = {name for tree in library + callers for name in _references(tree)}
    return sorted(defined - used), len(defined)


def test_every_public_function_has_a_caller():
    # tests do not count as callers: a function only tests call is API that
    # nothing needs
    library = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "kasnerlab").glob("*.py"))]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "kbench").glob("*.py"))]
    uncalled, n_defined = _uncalled(library, bench)
    assert n_defined > 30
    assert uncalled == []


def test_guard_flags_what_only_a_docstring_names():
    library = ast.parse(
        "def orphan():\n"
        '    """Not called: orphan and Box.lonely are only named here."""\n'
        "class Box:\n"
        "    def lonely(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
        "# orphan()\n"
    )
    assert _uncalled([library], []) == (["lonely", "orphan"], 2)


def test_guard_counts_names_attributes_and_imports():
    library = ast.parse(
        "def by_name():\n    pass\n"
        "class Box:\n"
        "    def by_attribute(self):\n"
        "        by_name()\n"
        "def by_import():\n    pass\n"
    )
    caller = ast.parse("from lib import by_import\nBox().by_attribute()\n")
    assert _uncalled([library], [caller]) == ([], 3)
    assert _uncalled([library], []) == (["by_attribute", "by_import"], 3)

"""Packaging metadata and API surface: every entry point pyproject.toml
declares must exist, the library must import no module beyond numpy and its
own (scipy included), every third-party module the tests import must be a
declared dependency, every public function of the library must have a
caller in the library or the benchmark, every defaulted parameter of the
library must be set by some call, and every error class but the base must
be raised somewhere in the library."""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_declared_scripts_import():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_library_imports_without_scipy():
    # scipy is a test dependency only: the library must not load it.  Past
    # numpy, importing every library module loads the library's own modules
    # and nothing else: concurrent.futures or logging, say, would add to the
    # import that every benchmark run's setup_s times
    library = sorted(p.stem for p in (ROOT / "src" / "kasnerlab").glob("*.py") if p.stem != "__init__")
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import kasnerlab\n"
        f"from kasnerlab import {', '.join(library)}\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = ast.literal_eval(out.stdout.strip())
    assert loaded == sorted(["kasnerlab"] + [f"kasnerlab.{name}" for name in library])


def _third_party_imports(trees, local):
    """Top-level modules the trees import anywhere, nested imports included,
    less the standard library, kasnerlab, relative imports and the local
    modules named in local, sorted."""
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    return sorted(found - set(sys.stdlib_module_names) - {"kasnerlab"} - set(local))


def _normalized(name):
    """A module or distribution name in PEP 503 form: each run of -, _ and .
    one -, in lower case, so an import name matches its distribution's."""
    return re.sub(r"[-_.]+", "-", name).lower()


def _requirement_names(requirements):
    """Normalized distribution names of PEP 508 requirement strings."""
    return {_normalized(re.match(r"[A-Za-z0-9._-]+", r).group()) for r in requirements}


def test_test_imports_are_declared():
    # every third-party module a test imports is a runtime dependency or is
    # named in the test extra, so `pip install .[test]` can run the suite
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = _requirement_names(project["dependencies"] + project["optional-dependencies"]["test"])
    paths = sorted((ROOT / "tests").glob("*.py"))
    imported = _third_party_imports([ast.parse(p.read_text()) for p in paths], [p.stem for p in paths])
    assert {"numpy", "pytest", "scipy"} <= set(imported)
    assert [name for name in imported if _normalized(name) not in declared] == []


def test_import_guard_counts_nested_imports_only_of_third_parties():
    tree = ast.parse(
        "import os.path\n"
        "import numpy as np\n"
        "from kasnerlab.grids import SpatialGrid\n"
        "from oracles import unpack_slots\n"
        "from . import sibling\n"
        "def late():\n"
        "    import sympy\n"
        "    from scipy.integrate import solve_ivp\n"
    )
    assert _third_party_imports([tree], ["oracles"]) == ["numpy", "scipy", "sympy"]
    assert _requirement_names(["numpy>=1.24", "Typing_Extensions[x] ; python_version>'3'", "sympy"]) == {
        "numpy", "typing-extensions", "sympy"
    }
    assert _normalized("typing_extensions") == "typing-extensions"


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


def _unraised(errors, library):
    """Classes of the errors tree, less the base KasnerLabError, that no
    raise in the library trees names as what it raises, sorted."""
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)} - {"KasnerLabError"}
    raised = set()
    for tree in library:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return sorted(defined - raised)


def test_every_error_class_is_raised():
    # a class that nothing raises is a failure mode callers cannot meet
    library = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "kasnerlab").glob("*.py"))]
    errors = ast.parse((ROOT / "src" / "kasnerlab" / "errors.py").read_text())
    assert len([node for node in errors.body if isinstance(node, ast.ClassDef)]) >= 4
    assert _unraised(errors, library) == []


def test_error_guard_flags_a_class_only_caught_or_named():
    errors = ast.parse(
        "class KasnerLabError(Exception):\n    pass\n"
        "class ByName(KasnerLabError):\n    pass\n"
        "class ByAttribute(KasnerLabError):\n    pass\n"
        "class Bare(KasnerLabError):\n    pass\n"
        "class Unraised(KasnerLabError):\n    pass\n"
    )
    library = ast.parse(
        "def f():\n"
        "    try:\n"
        '        raise ByName("text")\n'
        "    except Unraised as err:\n"
        "        raise errors.ByAttribute(str(Unraised)) from err\n"
        "    raise Bare\n"
    )
    assert _unraised(errors, [library]) == ["Unraised"]


def _defaulted_parameters(tree):
    """(callee, position, name) of each defaulted parameter of the module's
    public functions, its classes' public methods and their __init__, which
    a call reaches by the class name.  position is the parameter's index
    among a call's positional arguments, self not counted; None for a
    keyword-only parameter."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            members = [
                (node.name if item.name == "__init__" else item.name, item, 1)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            ]
        else:
            members = [(node.name, node, 0)] if isinstance(node, ast.FunctionDef) else []
        for callee, item, offset in members:
            if callee.startswith("_"):
                continue
            args = item.args
            positional = args.posonlyargs + args.args
            for index in range(len(positional) - len(args.defaults), len(positional)):
                yield callee, index - offset, positional[index].arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield callee, None, arg.arg


def _passed(trees):
    """(callee, position or keyword) of every argument a call in the trees
    passes; a call that unpacks * or ** passes (callee, "*")."""
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            else:
                continue
            passed.update((callee, index) for index in range(len(node.args)))
            passed.update((callee, kw.arg) for kw in node.keywords)
            unpacked = any(isinstance(a, ast.Starred) for a in node.args)
            if unpacked or any(kw.arg is None for kw in node.keywords):
                passed.add((callee, "*"))
    return passed


def _unset(library, callers):
    """Defaulted parameters of the library trees that no call in library or
    callers sets, sorted as "callee.name", and the number scanned."""
    parameters = [entry for tree in library for entry in _defaulted_parameters(tree)]
    passed = _passed(library + callers)
    unset = sorted(
        f"{callee}.{name}"
        for callee, position, name in parameters
        if not {(callee, position), (callee, name), (callee, "*")} & passed
    )
    return unset, len(parameters)


def test_every_defaulted_parameter_is_set_by_a_caller():
    """A default that no call overrides is a configuration nothing runs.

    Unlike the function guard, tests count as setters here: SpatialGrid's
    mode=LOCALIZED, the paper's localization in space, is set only by tests
    until a localized tower runs elsewhere, and a test that exercises a
    parameter is reason enough to keep it."""
    library = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "kasnerlab").glob("*.py"))]
    callers = [
        ast.parse(p.read_text())
        for directory in ("kbench", "tests")
        for p in sorted((ROOT / directory).glob("*.py"))
    ]
    unset, n_scanned = _unset(library, callers)
    assert n_scanned >= 10
    assert unset == []


def test_parameter_guard_counts_positions_keywords_and_unpacking():
    library = ast.parse(
        "def f(a, by_position=1, by_keyword=2, unset=3, *, kw_only=4):\n"
        '    """unset=0 and kw_only=0 are only named here."""\n'
        "class Box:\n"
        "    def __init__(self, size=1):\n"
        "        pass\n"
        "    def fill(self, level=0, spare=0):\n"
        "        pass\n"
        "    def _private(self, hidden=0):\n"
        "        pass\n"
        "def starred(x=0):\n    pass\n"
        "def double_starred(y=0):\n    pass\n"
    )
    caller = ast.parse(
        "f(0, 1)\n"
        "f(0, by_keyword=2)\n"
        "Box(5).fill(level=1)\n"
        "starred(*args)\n"
        "double_starred(**options)\n"
        "# f(0, 1, 2, kw_only=4)\n"
    )
    assert _unset([library], [caller]) == (["f.kw_only", "f.unset", "fill.spare"], 9)
    assert _unset([library], [])[0] == [
        "Box.size", "double_starred.y", "f.by_keyword", "f.by_position",
        "f.kw_only", "f.unset", "fill.level", "fill.spare", "starred.x",
    ]

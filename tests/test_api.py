"""The package exports exactly the names its ``__init__`` imports, each of
its modules imports on its own, its modules import each other one way,
every text file it opens names its encoding, and every private function or
class it defines is used."""

import ast
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import satpinhole


def test_all_matches_imported_names():
    exported = satpinhole.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(satpinhole, name)] == []

    tree = ast.parse(Path(satpinhole.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert set(exported) == imported


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(satpinhole.__path__)))
def test_module_imports_in_a_fresh_interpreter(module):
    # Modules import each other at load time; a cycle among those imports
    # fails here, whichever module a caller loads first.
    env = dict(os.environ, PYTHONPATH=str(Path(satpinhole.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", f"import satpinhole.{module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def _package_imports(tree) -> set[str]:
    """Package modules that a module's AST imports, wherever the statement sits:
    at the top, inside a function or under ``if TYPE_CHECKING``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # "from .x import y" and "from satpinhole.x import y" name module
            # x; "from . import x" and "from satpinhole import x" name x.
            if node.level == 1:
                module = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "satpinhole":
                module = node.module.partition(".")[2]
            else:
                continue
            found.update([module.split(".")[0]] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("satpinhole.")
            )
    return found


def test_module_imports_form_no_cycle():
    # A cycle hidden from load time (a call-time import, or one under
    # TYPE_CHECKING) still ties two modules together; the graph must be a DAG.
    package = Path(satpinhole.__file__).parent
    graph = {
        path.stem: _package_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    assert {stem for deps in graph.values() for stem in deps} <= set(graph)
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as err:
        pytest.fail("import cycle: " + " -> ".join(err.args[1]))


def _text_io_calls(tree):
    """(names an encoding, source) of each text-mode ``open``, ``read_text``
    and ``write_text`` call in a module's AST."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode_args = node.args[1:2]  # open(file, mode, ...)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            mode_args = node.args[:1]  # Path.open(mode, ...)
        elif isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
            mode_args = []
        else:
            continue
        keywords = {kw.arg: kw.value for kw in node.keywords}
        mode = mode_args[0] if mode_args else keywords.get("mode")
        if isinstance(mode, ast.Constant) and "b" in mode.value:
            continue
        yield "encoding" in keywords, ast.unparse(node)


def test_text_io_names_its_encoding():
    # Without an encoding, Python takes the locale's; the package's text
    # files are UTF-8 wherever they are written or read.
    package = Path(satpinhole.__file__).parent
    calls = [
        (path.name, named, source)
        for path in sorted(package.glob("*.py"))
        for named, source in _text_io_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert calls
    assert [(name, source) for name, named, source in calls if not named] == []


def _names_used(tree):
    """Each name a piece of AST reads, as a bare name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_definition_is_used():
    # A module-level private function or class that nothing else in the
    # package names is dead code (its tests alone do not keep it).
    package = Path(satpinhole.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names_used(tree))
    unused = [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and uses[node.name] == Counter(_names_used(node))[node.name]
    ]
    assert unused == []

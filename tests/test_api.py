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


def test_cli_imports_no_private_name():
    # The command line is a client of the library: each command goes through
    # the functions a library caller has, so a rule kept in a private helper
    # holds for both.
    tree = ast.parse((Path(satpinhole.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


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


_WARNING_FILTER_CALLS = {"catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"}


def test_package_leaves_warning_filters_alone():
    # Warning filters are process-wide state, like thread settings: the
    # package silences a floating-point case with np.errstate instead.
    package = Path(satpinhole.__file__).parent
    calls = [
        f"{path.name}: {ast.unparse(node)}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr in _WARNING_FILTER_CALLS)
            or (isinstance(node.func, ast.Name) and node.func.id in _WARNING_FILTER_CALLS)
        )
    ]
    assert calls == []


_ENVIRON_CALLS = {"update", "setdefault", "pop", "popitem", "clear"}


def _is_environ(node):
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _changes_environment(node):
    if isinstance(node, ast.Subscript):
        return _is_environ(node.value) and isinstance(node.ctx, (ast.Store, ast.Del))
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in {"putenv", "unsetenv"} or (name in _ENVIRON_CALLS and _is_environ(func.value))
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "threadpoolctl" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "threadpoolctl"
    return False


def test_package_leaves_the_environment_alone():
    # Thread counts (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, threadpoolctl)
    # are the caller's to set: the package reads the environment, never
    # writes it.
    package = Path(satpinhole.__file__).parent
    changes = [
        f"{path.name}: {ast.unparse(node)}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _changes_environment(node)
    ]
    assert changes == []


def _is_raise_of(name):
    # "raise E(...)" names E in its call, "raise E" directly.
    return lambda node: isinstance(node, ast.Raise) and getattr(getattr(node.exc, "func", node.exc), "id", None) == name


def _is_text(phrase):
    return lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str) and phrase in node.value


def _is_call_of(attr):
    return lambda node: isinstance(node, ast.Call) and getattr(node.func, "attr", None) == attr


def _is_call_to(name):
    return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def _is_keyword(name, value):
    return lambda node: isinstance(node, ast.keyword) and node.arg == name and getattr(node.value, "value", None) == value


@pytest.mark.parametrize(
    "rule, owner",
    [
        (_is_raise_of("MemoryError"), "raster._require_memory"),
        (_is_text("points fall behind the camera"), "equivalence._require_in_front"),
        (_is_call_of("from_residuals"), "equivalence.measure_equivalence_error"),
        (_is_text("image size must be positive"), "raster._image_size"),
        (_is_call_to("_overlay"), "fusion._union_rows"),
        (_is_keyword("newline", "\n"), "kvio.write_file"),
        (_is_call_to("project_lattice"), "equivalence._survivors"),
    ],
    ids=["memory-bound", "cheirality-refusal", "report", "image-size", "union-walk", "newline-rule", "lattice-walk"],
)
def test_each_fit_path_rule_has_one_owner(rule, owner):
    # A rule written out in two places drifts: each is one function that
    # every caller goes through, and no inline copy is left.
    package = Path(satpinhole.__file__).parent
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition('.')[0]}.{node.name}"
        if rule(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == [owner]

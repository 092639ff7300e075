"""The package exports exactly the names its ``__init__`` imports, and each
of its modules imports on its own."""

import ast
import os
import pkgutil
import subprocess
import sys
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

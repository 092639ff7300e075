"""The package exports exactly the names its ``__init__`` imports."""

import ast
from pathlib import Path

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

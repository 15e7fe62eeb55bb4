import ast
from pathlib import Path

import rtreelab


def test_every_export_resolves_and_every_public_import_is_exported():
    assert all(hasattr(rtreelab, name) for name in rtreelab.__all__)
    assert len(set(rtreelab.__all__)) == len(rtreelab.__all__)
    tree = ast.parse(Path(rtreelab.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(name for name in imported if not name.startswith("_")) == sorted(rtreelab.__all__)

"""Source hygiene of the package modules, read with ast."""

import ast
from pathlib import Path

import pytest

import fqrank

MODULES = sorted(p for p in Path(fqrank.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_import_and_has_no_assert(path):
    """An import the module never reads is dead code; an assert statement is
    stripped by python -O, so a check must raise explicitly.  __init__.py
    only re-exports, so it is left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - read, f"imported but never read: {sorted(imported - read)}"
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not asserts, f"assert statements at lines {asserts}"

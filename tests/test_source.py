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


def _package_imports(path: Path) -> set[str]:
    """The package modules a module imports, relatively or as fqrank.x; a
    bare `from . import x` or `from fqrank import x` counts x."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {a.name.partition(".")[2] or "__init__" for a in node.names
                      if a.name.split(".")[0] == "fqrank"}
        elif isinstance(node, ast.ImportFrom) and (node.level
                                                   or node.module.split(".")[0] == "fqrank"):
            module = node.module if node.level else node.module.partition(".")[2]
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return found


@pytest.mark.parametrize("name, forbidden", [
    ("errors.py", None),  # None: every package module
    ("distributions.py", {"models", "_fast", "harness"}),
    ("chain.py", {"models", "_fast", "harness"}),
])
def test_import_graph(name, forbidden):
    """errors.py, which every module imports, imports none of them; the exact
    laws and chains import neither the sampler, the rank kernel nor the
    harness that checks them against Monte Carlo."""
    imported = _package_imports(Path(fqrank.__file__).parent / name)
    assert not (imported if forbidden is None else imported & forbidden), sorted(imported)


def test_only_the_two_eliminations_read_a_field_inverse():
    """A pivot needs a field inverse, so only the two eliminations read one:
    matrix.insert_row, the scalar step that FqMatrix, rank_rows and
    brute_force_pmf share, and _fast.rank_stack, the vector kernel.  Reading
    `inv` or `div` anywhere else would start a second pivot loop.  field.py
    defines both."""
    readers = {path.name for path in MODULES
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Attribute) and node.attr in ("inv", "div")}
    assert readers == {"field.py", "matrix.py", "_fast.py"}, sorted(readers)


def test_only_field_reads_the_field_tables():
    """Table arithmetic stays in field.py: the scalar methods, add_multiple
    and Field.vec read the log, exp, negation and Zech tables, and every other
    module asks a Field for its arithmetic instead."""
    readers = {path.name for path in MODULES
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Attribute)
               and node.attr in ("_log", "_exp", "_neg", "_zech")}
    assert readers == {"field.py"}, sorted(readers)

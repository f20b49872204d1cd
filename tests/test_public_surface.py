"""Every name ``amplab/__init__.py`` exports is used by the program.

A use is a reference (a name or an attribute, not an import) in code
outside the name's own definition and outside ``__init__.py``: in
``src/amplab``, ``demos/`` or ``benchmark/``.  Tests do not count, so a
function that only its tests call shows up here as surface to delete.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "amplab"


def exported():
    """(name, defining module) for each name ``__init__.py`` imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(alias.asname or alias.name, node.module)
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def references(tree, skip=None):
    """Names and attributes referenced in ``tree``, outside the ``skip`` node."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def program_files():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return files + sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "benchmark").glob("*.py"))


TREES = {path: ast.parse(path.read_text()) for path in program_files()}


def definition(tree, name):
    return next((node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name == name), None)


@pytest.mark.parametrize("name, module", exported(),
                         ids=[name for name, _ in exported()])
def test_exported_name_is_used_by_the_program(name, module):
    home = PACKAGE / f"{module}.py"
    users = [path.relative_to(ROOT) for path, tree in TREES.items()
             if name in references(
                 tree, definition(tree, name) if path == home else None)]
    assert users, (f"amplab.{name} is exported but nothing in src/amplab, "
                   f"demos/ or benchmark/ uses it")

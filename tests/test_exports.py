"""Every name the package exports has a consumer inside the package.

The check parses the source: a use is a name or an attribute in some
module of src/attnkit other than __init__, outside the definition of
the name itself. Docstrings, comments and import lines do not count, so
a name that only tests call fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "attnkit"

MODULES = {
    path.stem: ast.parse(path.read_text())
    for path in sorted(SRC.glob("*.py"))
    if path.name != "__init__.py"
}


def exported():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def uses(tree, name, skip) -> int:
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and node.id == name:
            count += 1
        elif isinstance(node, ast.Attribute) and node.attr == name:
            count += 1
        stack.extend(ast.iter_child_nodes(node))
    return count


def definition(tree, name):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


def test_the_walk_finds_the_exports():
    names = [name for _, name in exported()]
    assert "attention" in names and "run_schedule" in names
    assert len(names) == len(set(names))


@pytest.mark.parametrize("module, name", exported(), ids=lambda v: v)
def test_every_export_is_used_in_the_package(module, name):
    total = sum(
        uses(tree, name, definition(tree, name) if stem == module else None)
        for stem, tree in MODULES.items()
    )
    assert total > 0, f"{module}.{name} is exported but nothing in src/attnkit uses it"

"""Every name the package exports, and every method of an exported
class, has a consumer inside the package.

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


def methods():
    """(module, class, method) for each method defined in the body of an
    exported class; dunder methods are called by Python itself."""
    return [
        (module, name, node.name)
        for module, name in exported()
        if isinstance(cls := definition(MODULES[module], name), ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    ]


def class_uses(tree, cls, name, skip) -> int:
    """Uses of cls.name: a class or static method can share its name with
    a numpy function (np.ones), so the class must show at the call."""
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and node.attr == name:
            count += isinstance(node.value, ast.Name) and node.value.id in (cls, "cls")
        stack.extend(ast.iter_child_nodes(node))
    return count


def test_the_walk_finds_the_methods():
    assert ("score", "Link", "evaluate") in methods()


@pytest.mark.parametrize(
    "module, cls, method", methods(), ids=lambda v: v if isinstance(v, str) else None
)
def test_every_method_of_an_exported_class_is_used_in_the_package(module, cls, method):
    body = definition(MODULES[module], cls).body
    own = next(node for node in body if getattr(node, "name", None) == method)
    on_class = any(
        isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
        for d in own.decorator_list
    )
    total = sum(
        class_uses(tree, cls, method, own if stem == module else None)
        if on_class
        else uses(tree, method, own if stem == module else None)
        for stem, tree in MODULES.items()
    )
    assert total > 0, f"{module}.{cls}.{method} is defined but nothing in src/attnkit calls it"

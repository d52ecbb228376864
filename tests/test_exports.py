"""Every name the package exports, and every method of an exported
class, has a consumer inside the package; every error class has a
caller that branches on it.

The check parses the source: a use is a name read or an attribute in
some module of src/attnkit other than __init__, outside the definition
of the name itself. Docstrings, comments and import lines do not count,
nor does a local variable or an argument that shares the name, so a
name that only tests call fails here.
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


def bound(func) -> set:
    """The names a function binds itself: its arguments and the names it
    assigns."""
    args = func.args
    names = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
        if a is not None
    }
    names.update(
        node.id
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    )
    return names


def uses(tree, name, skip, prune=()) -> int:
    """Reads of name, and attributes called name, in tree outside the
    node skip and outside nodes of the types in prune."""
    count = 0
    stack = [(tree, False)]
    while stack:
        node, local = stack.pop()
        if node is skip or isinstance(node, prune):
            continue
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            local = local or name in bound(node)
        if isinstance(node, ast.Name) and node.id == name:
            count += not local and isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.Attribute) and node.attr == name:
            count += 1
        stack.extend((child, local) for child in ast.iter_child_nodes(node))
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


def test_a_local_variable_is_not_a_use():
    tree = ast.parse("def f(row_mass):\n    total = row_mass\n\n"
                     "def g():\n    row_mass = 1\n    return row_mass\n")
    assert uses(tree, "row_mass", None) == 0
    assert uses(ast.parse("def h():\n    return row_mass(k)\n"), "row_mass", None) == 1


def error_classes():
    return [
        node.name
        for node in MODULES["errors"].body
        if isinstance(node, ast.ClassDef) and node.name != "AttnKitError"
    ]


def test_the_walk_finds_the_error_classes():
    assert "ConfigInvalid" in error_classes() and "NonFinite" in error_classes()


@pytest.mark.parametrize("name", error_classes())
def test_every_error_class_is_branched_on_in_the_package(name):
    # Raising a class is no reason for it to exist; an except clause or
    # a tuple of classes that a handler catches is.
    total = sum(
        uses(tree, name, definition(tree, name) if stem == "errors" else None, (ast.Raise,))
        for stem, tree in MODULES.items()
    )
    assert total > 0, f"errors.{name} is raised but nothing in src/attnkit branches on it"


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

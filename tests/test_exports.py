"""Every name the package exports, and every method of an exported
class, has a consumer inside the package; every error class has a
caller that branches on it.

The check parses the source: a use is a name read or an attribute in
some module of src/attnkit other than __init__ and checks, outside the
definition of the name itself. checks is the property harness: it reads
library code to verify it, so code that only the harness reads has no
consumer. Docstrings, comments and import lines do not count,
nor does a local variable or an argument that shares the name, so a
name that only tests call fails here. Nor does a use inside a
module-level function or class that nothing reaches: one the package
does not export and that no reached code reads, so an unused helper
cannot vouch for the names it calls.
"""

import ast
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "attnkit"

MODULES = {
    path.stem: ast.parse(path.read_text())
    for path in sorted(SRC.glob("*.py"))
    if path.name not in ("__init__.py", "checks.py")
}

# Exports that only the harness reads, each with the op that will use it.
HARNESS_ONLY = {
    # multi-head attention, whose heads are unit-gate mixture branches
    "flatten_mixture",
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


class Read(NamedTuple):
    """A name read or an attribute. owner is None for a name read; for
    an attribute it is the name the attribute is taken of, or "" when
    that is not a plain name. scope holds the functions and classes the
    read sits in, outermost first, and raised says whether it sits in a
    raise statement."""

    name: str
    owner: str | None
    scope: tuple
    raised: bool


def reads(tree) -> list:
    """Every read in tree; a name that an enclosing function binds
    itself is a local, not a read."""
    found = []
    stack = [(tree, frozenset(), (), False)]
    while stack:
        node, local, scope, raised = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            local = local | bound(node)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node)
        raised = raised or isinstance(node, ast.Raise)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                found.append(Read(node.id, None, scope, raised))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else ""
            found.append(Read(node.attr, owner, scope, raised))
        stack.extend((child, local, scope, raised) for child in ast.iter_child_nodes(node))
    return found


def uses(found, name, skip=frozenset(), raised=True) -> int:
    """Reads of name in found outside the definitions in skip, and
    outside raise statements unless raised."""
    return sum(
        read.name == name and skip.isdisjoint(read.scope) and (raised or not read.raised)
        for read in found
    )


def unreached(modules, names) -> set:
    """The module-level functions and classes of modules that nothing
    reaches. Module-level code and the definitions of names are reached;
    so is a definition whose name a reached definition reads, or that
    module-level code reads. Two definitions that only read each other
    are unreached together."""
    found = [read for tree in modules.values() for read in reads(tree)]
    defs = [
        node
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    reached = {node for node in defs if node.name in names}
    while True:
        read = {r.name for r in found if not r.scope or r.scope[0] in reached}
        new = {node for node in defs if node.name in read} - reached
        if not new:
            return set(defs) - reached
        reached |= new


READS = {stem: reads(tree) for stem, tree in MODULES.items()}
UNREACHED = unreached(MODULES, {name for _, name in exported()})


def definition(tree, name):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


def package_uses(name, own, raised=True, owners=None) -> int:
    """Uses of name in src/attnkit outside its definition own and
    outside unreached definitions; with owners, only attributes taken
    of one of those names count."""
    return sum(
        uses(
            [read for read in found if owners is None or read.owner in owners],
            name,
            UNREACHED | {own},
            raised,
        )
        for found in READS.values()
    )


def test_the_walk_finds_the_exports():
    names = [name for _, name in exported()]
    assert "attention" in names and "run_schedule" in names
    assert len(names) == len(set(names))


@pytest.mark.parametrize("module, name", exported(), ids=lambda v: v)
def test_every_export_is_used_in_the_package(module, name):
    total = package_uses(name, definition(MODULES[module], name))
    if name in HARNESS_ONLY:
        assert total == 0, f"{module}.{name} has a consumer now: drop it from HARNESS_ONLY"
    else:
        assert total > 0, f"{module}.{name} is exported but nothing in src/attnkit uses it"


def test_a_local_variable_is_not_a_use():
    tree = ast.parse("def f(row_mass):\n    total = row_mass\n\n"
                     "def g():\n    row_mass = 1\n    return row_mass\n")
    assert uses(reads(tree), "row_mass") == 0
    assert uses(reads(ast.parse("def h():\n    return row_mass(k)\n")), "row_mass") == 1


def test_a_use_inside_an_unreached_definition_is_not_a_use():
    # objective alone reads kl, and nothing reads objective; ping and
    # pong read only each other; entry is exported and reads helper.
    tree = ast.parse(
        "def kl(a):\n    return a\n\n"
        "def objective(a):\n    return kl(a)\n\n"
        "def ping():\n    return pong()\n\n"
        "def pong():\n    return ping()\n\n"
        "def entry():\n    return helper()\n\n"
        "def helper():\n    return 1\n"
    )
    dead = unreached({"m": tree}, {"kl", "entry"})
    assert {node.name for node in dead} == {"objective", "ping", "pong"}
    assert uses(reads(tree), "kl") == 1
    assert uses(reads(tree), "kl", dead) == 0
    assert uses(reads(tree), "helper", dead) == 1


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
    total = package_uses(name, definition(MODULES["errors"], name), raised=False)
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


def test_the_walk_finds_the_methods():
    assert ("anchor", "Marginals", "matched") in methods()


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
    # A class or static method can share its name with a numpy function
    # (np.ones), so the class must show at the call.
    total = package_uses(method, own, owners=(cls, "cls") if on_class else None)
    assert total > 0, f"{module}.{cls}.{method} is defined but nothing in src/attnkit calls it"

"""Every module-level private function and class of the package is used,
and every module-level import is read.

A private helper (a name starting with "_") that nothing in the package
refers to is dead code; this test reads the sources with `ast` and lists
every such helper whose name appears nowhere in the package outside its
own definition.  Likewise a name a module imports at module level and never
reads is a stale import.  `__init__.py` is exempt from the import check:
it imports to re-export.

The breadth-first group closure `weyl._closure` is referred to only from
the two enumerations that `verify` and the tests read:
`enumerate_absolute_weyl` and `RelativeWeylGroup.elements`.  The Smith
slots of a coinvariant class are read only inside
`abelian.QuotientPresentation`.  `abelian` and `rootdatum` import nothing
from `fractions`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twisted_satake"


def _referenced_names(tree, skip):
    """Names read, attribute names and imported names in tree, outside the
    nodes in skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_private_helpers_are_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    private = {
        (module, node.name): node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
    }
    assert private, "no private helpers found; is the source path right?"
    unused = []
    for (module, name), definition in sorted(private.items()):
        used = any(
            name in _referenced_names(tree, {definition} if other == module else set())
            for other, tree in trees.items()
        )
        if not used:
            unused.append(f"{module}:{definition.lineno} {name}")
    assert unused == []


def test_module_level_imports_are_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []


def _enclosing_names(tree, name):
    """Qualified names of the functions in which `name` is read, as a
    variable or as an attribute."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Name) and node.id == name:
            found.append(".".join(scope))
        elif isinstance(node, ast.Attribute) and node.attr == name:
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_closure_is_read_only_by_the_enumerations():
    readers = {
        (path.name, reader)
        for path in sorted(SRC.glob("*.py"))
        for reader in _enclosing_names(ast.parse(path.read_text()), "_closure")
    }
    assert readers == {
        ("weyl.py", "enumerate_absolute_weyl"),
        ("weyl.py", "RelativeWeylGroup.elements"),
    }


def test_class_slots_are_read_only_by_the_presentation():
    """How a class (free, torsion) maps to Smith coordinates, is reduced and
    is shape-checked is known to `abelian.QuotientPresentation` alone; every
    other module reads classes through its `coordinates` and `normal_form`."""
    readers = {
        (path.name, reader.split(".")[0])
        for path in sorted(SRC.glob("*.py"))
        for name in ("free_slots", "torsion_slots")
        for reader in _enclosing_names(ast.parse(path.read_text()), name)
    }
    assert readers == {("abelian.py", "QuotientPresentation")}


def test_lattice_modules_import_no_fractions():
    """`abelian` and `rootdatum` solve every linear system through Smith
    normal form, in integers: neither imports `fractions` or anything
    from it, at any level."""
    found = []
    for name in ("abelian.py", "rootdatum.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "fractions":
                found.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Import) and any(
                    alias.name == "fractions" for alias in node.names):
                found.append(f"{name}:{node.lineno}")
    assert found == []

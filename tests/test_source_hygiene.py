"""Every module-level private function and class of the package is used,
and every module-level import is read.

A private helper (a name starting with "_") that nothing in the package
refers to is dead code; this test reads the sources with `ast` and lists
every such helper whose name appears nowhere in the package outside its
own definition.  Likewise a name a module imports at module level and never
reads is a stale import.  `__init__.py` is exempt from the import check:
it imports to re-export.

No module defines the breadth-first matrix closure of a Weyl group
(`_closure`, `enumerate_absolute_weyl`, `fixed_weyl_subgroup`,
`RelativeWeylGroup.elements` and `.orbit`); it lives in the tests as an
oracle.  The orbit walks `_regular_orbit` and `_w0_orbit` are defined and
read in `suites.py` alone, the module behind `verify`.  The Smith
slots of a coinvariant class are read only inside
`abelian.QuotientPresentation`.  The order coordinates of a class are
read only in `coweights`, and no module lists all comparable pairs of the
dominance order.  `abelian` and `rootdatum` import nothing from
`fractions`.  Every field of a value class is read by name somewhere.
The point queries `mv_cell`, `conv_cell` and `corr` reach neither `leq`,
`RelativeWeylGroup.act` nor `two_rho_levi` except through a per-datum cache.
"""

import ast
from pathlib import Path

from twisted_satake.weyl import RelativeWeylGroup

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twisted_satake"


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


def _definitions(tree):
    """Qualified names of every function and class defined in tree."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_no_group_closure_and_walks_only_in_suites():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = {(module, name) for module, tree in trees.items() for name in _definitions(tree)}
    closure = {"_closure", "enumerate_absolute_weyl", "fixed_weyl_subgroup",
               "RelativeWeylGroup.elements", "RelativeWeylGroup.orbit"}
    assert ("weyl.py", "RelativeWeylGroup") in defined
    assert [(m, n) for m, n in sorted(defined) if n in closure or n.rsplit(".", 1)[-1] in closure] == []
    assert not any(hasattr(RelativeWeylGroup, name) for name in ("elements", "orbit"))
    for walk in ("_regular_orbit", "_w0_orbit"):
        users = {m for m, n in defined if n == walk}
        users |= {m for m, tree in trees.items() if _enclosing_names(tree, walk)}
        assert users == {"suites.py"}, walk


def _cached(node):
    """Is the function definition wrapped in `functools.lru_cache`?"""
    return any(isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "lru_cache"
               for d in node.decorator_list)


def test_point_queries_call_no_order_certificate_action_or_levi_sum():
    """From `mv_cell`, `conv_cell` and `corr`, every module-level function of
    the package they call, and what those call in turn, calls none of `leq`,
    `act` and `two_rho_levi`.  The walk stops at an `lru_cache`d function:
    a per-datum or per-class cache may build with them."""
    functions = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, []).append(node)
    forbidden = {"leq", "act", "two_rho_levi"}
    found, seen = [], set()
    stack = [(name, name) for name in ("mv_cell", "conv_cell", "corr")]
    assert all(name in functions for _, name in stack)
    while stack:
        root, name = stack.pop()
        for definition in functions.get(name, ()):
            if id(definition) in seen or (name != root and _cached(definition)):
                continue
            seen.add(id(definition))
            for node in ast.walk(definition):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if called in forbidden:
                        found.append(f"{root} -> {name} calls {called}")
                    elif called in functions:
                        stack.append((root, called))
    assert found == []


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


def test_order_coordinates_are_read_only_in_coweights():
    """The dominance order's coordinates are known to `coweights` alone:
    `_order_coordinates` and the substrate's `order_*` rows appear in no
    other module, `hasse_covers` is defined, and the all-pairs relation
    list `order_relations` is defined nowhere in the package."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    names = ("_order_coordinates", "order_rows", "order_lift", "order_scale", "order_moduli")
    readers = {module for module, tree in trees.items()
               if set(names) & _referenced_names(tree, set())}
    assert readers == {"coweights.py"}
    defined = {n.rsplit(".", 1)[-1] for tree in trees.values() for n in _definitions(tree)}
    assert "hasse_covers" in defined and "order_relations" not in defined


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


def _value_fields():
    """(class, field) for each annotated field of a `@frozen` class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "frozen" for d in node.decorator_list):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield node.name, stmt.target.id


def test_every_value_field_is_read():
    """A value holds only what someone reads: each field of a `@frozen`
    class is read as an attribute (`.name`) in the package, the bench or a
    test.  `test_value.py` does not count, since its generic walk reaches
    every field through `getattr`."""
    readers = [*SRC.glob("*.py"), *ROOT.glob("bench/**/*.py"), *ROOT.glob("tests/*.py")]
    read = {
        node.attr
        for path in readers if path.name != "test_value.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = list(_value_fields())
    assert len(found) > 50, "no value fields found; is the source path right?"
    assert [f"{cls}.{name}" for cls, name in found if name not in read] == []

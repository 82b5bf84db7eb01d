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
dominance order.  Among `coweights`, `satake` and `suites`, only the
substrate's Kottwitz rows read `pi1_coinvariants_presentation` to find a
class's component; `suites` keeps its brute-force coset count.  `abelian` and `rootdatum` import nothing from
`fractions`.  Dominant lattice points have one enumerator: only
`coweights.enumerate_dominant_classes` scans a `coord_bound` box, and
`rootdatum` imports no `itertools`.  Every field of a value class is read by name somewhere.
Within the package only `__init__` and `cli` import `presets`: no answer
depends on a preset name.  The point queries `mv_cell`, `conv_cell` and
`corr` reach neither `leq`, `weyl._descended` nor `two_rho_levi` except
through a per-datum cache, and `corr` and `_corr_row` call neither
`coinvariants` nor `class_of`: the Levi shift pairs with the coweight.  `branch_to_fixed_group` and `_verify_branch`
reach no full character, and no module defines `restrict_to_coinvariants`.
W0 on class coordinates is derived once: `_descended` is read only by
`weyl._w0_reflections`, and `simple_reflection` only inside `weyl`.  So are
the orbit rows c_O that heights and dominance read: only
`weyl._orbit_pairings` pairs unit lifts with simple roots, only `galois`
reads the inertia group sum, and `coweights` and `satake` import no
`group_order`.  The package's `lru_cache`s are those in `KEPT_CACHES`, each
with the bench workload that reads it twice or the reason it is kept, and
no function carries a copied `cache_info` or `cache_clear`.

Every public top-level name of a public module has a reader: a command or
suite reaches it from the package's module-level code, README's code names
it, the bench names it, or `READ_ONLY_BY_TESTS` gives the test that reads
it.  A name read only by tests or by other unread names fails.  So does a
public method, property or static method of a class that no reached code
reads as an attribute, that README's code and the bench never write after
a dot, and that `READ_ONLY_BY_TESTS` does not list as `Class.member`.
"""

import ast
import copy
import re
import textwrap
from pathlib import Path

from twisted_satake.weyl import RelativeWeylGroup

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twisted_satake"


def _referenced_names(tree, skip, members=False):
    """Names read, attribute names and imported names in tree, outside the
    nodes in skip; with members, each attribute name also as `.attr`, the
    class member that only an attribute read reaches."""
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
            if members:
                names.add("." + node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unused_private(trees):
    """(module, name) for each module-level private function and class of
    trees whose name nothing in trees refers to outside its own definition."""
    private = {
        (module, node.name): node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
    }
    assert private, "no private helpers found; is the source path right?"
    return [
        (module, name) for (module, name), definition in sorted(private.items())
        if not any(name in _referenced_names(tree, {definition} if other == module else set())
                   for other, tree in trees.items())
    ]


def test_private_helpers_are_referenced():
    assert _unused_private(_sources()) == []


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


# Every `lru_cache` of the package, with the bench workload whose round
# (seed 1) reads it again, or the reason it is kept without one.  A cache
# that no workload hits and no stated reason needs costs memory and a
# second code path, so it leaves.
KEPT_CACHES = {
    "coweights._attractor_row": "library-session",
    "coweights._class_row": "posets-cli, library-session",
    "coweights._substrate": "posets-cli, library-session",
    "dual.dual_twisted": "branching-cli, library-session",
    "dual.fixed_group_descriptor": "library-session",
    "galois.coinvariants": "posets-cli, branching-cli, library-session",
    "galois.group_elements": "posets-cli, branching-cli, library-session",
    "galois.pi1_coinvariants_presentation": "posets-cli, library-session",
    "galois.relative_simple_roots": "posets-cli, branching-cli, library-session",
    "galois.validate_twisted": "all three; and it checks each datum once",
    "presets._special_unitary": "library-session; and the preset builders return "
                                "the same entry on every lookup",
    "presets._torus": "the preset builders return the same entry on every lookup",
    "rep._dominant_character": "library-session; the one character cache",
    "rootdatum._reflection_closure": "posets-cli, branching-cli, library-session",
    "rootdatum._validity_report": "posets-cli, branching-cli, library-session",
    "rootdatum.full_root_system": "posets-cli, branching-cli, library-session",
    "satake._corr_row": "library-session",
    "weyl._w0_reflections": "library-session",
    "weyl.relative_weyl": "library-session",
}


def test_each_cache_has_a_second_reader():
    """The package's `lru_cache`s are exactly `KEPT_CACHES`, and no
    function carries another's cache by assigning `cache_info` or
    `cache_clear`."""
    cached, copied = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and _cached(node):
                cached.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Assign):
                copied += [ast.unparse(t) for t in node.targets
                           if getattr(t, "attr", None) in ("cache_info", "cache_clear")]
    assert sorted(cached) == sorted(KEPT_CACHES)
    assert len(cached) == 19
    assert copied == []


def test_point_queries_call_no_order_certificate_action_or_levi_sum():
    """From `mv_cell`, `conv_cell` and `corr`, every module-level function of
    the package they call, and what those call in turn, calls none of `leq`,
    `_descended` (a W0 generator's matrix on class coordinates) and
    `two_rho_levi`.  The walk stops at an `lru_cache`d function: a per-datum
    or per-class cache may build with them."""
    functions = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, []).append(node)
    forbidden = {"leq", "_descended", "two_rho_levi"}
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


def test_corr_reads_no_class():
    """`corr` pairs the coweight itself with the I-invariant character
    2 rho - 2 rho_M: neither `satake.corr` nor `satake._corr_row` calls
    `coinvariants` or `class_of`."""
    tree = _sources()["satake.py"]
    definitions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = [
        f"{name} calls {called}"
        for name in ("corr", "_corr_row")
        for node in ast.walk(definitions[name]) if isinstance(node, ast.Call)
        for called in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
        if called in ("coinvariants", "class_of")
    ]
    assert found == []


def test_branch_builds_no_full_character():
    """`branch_to_fixed_group` restricts by one orbit walk into class
    coordinates and `_verify_branch` checks on dominant weights: no
    module-level function of the package that either reads, nor any that
    those read in turn, reads `irreducible_character`.  The weight-by-weight pushforward
    `restrict_to_coinvariants` is defined in no module; it is the oracle in
    `tests/test_branching_reference.py`."""
    trees = _sources()
    functions = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, []).append(node)
    forbidden = {"irreducible_character"}
    found, seen = [], set()
    stack = [(name, name) for name in ("branch_to_fixed_group", "_verify_branch")]
    assert all(name in functions for _, name in stack)
    while stack:
        root, name = stack.pop()
        for definition in functions.get(name, ()):
            if id(definition) in seen:
                continue
            seen.add(id(definition))
            names = _referenced_names(definition, set())
            found += [f"{root} -> {name} reads {n}" for n in sorted(names & forbidden)]
            stack += [(root, n) for n in names if n in functions]
    assert found == []
    defined = {n.rsplit(".", 1)[-1] for tree in trees.values() for n in _definitions(tree)}
    assert "restrict_to_coinvariants" not in defined


def test_w0_on_classes_is_derived_once():
    """`weyl._w0_reflections` is the one derivation of W0 on class
    coordinates: no other function of the package reads `_descended`, no
    module but `weyl` reads `simple_reflection`, and no module imports
    either."""
    trees = _sources()
    descended = {(module, scope) for module, tree in trees.items()
                 for scope in _enclosing_names(tree, "_descended")}
    assert descended == {("weyl.py", "_w0_reflections")}
    assert {module for module, tree in trees.items()
            if _enclosing_names(tree, "simple_reflection")} == {"weyl.py"}
    imported = [f"{module}:{node.lineno} {alias.name}"
                for module, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name in ("_descended", "simple_reflection")]
    assert imported == []


def test_orbit_rows_are_derived_once():
    """c_O, each unit class's lift paired with the sum of an orbit's simple
    roots, is derived in `weyl._orbit_pairings` alone: no other function
    reads both `unit_lifts` and `simple_roots`.  No module but `galois`
    reads `group_sum`, and neither `coweights` nor `satake` imports
    `group_order`: their heights and dominance average nothing."""
    trees = _sources()
    pairing = {(module, scope) for module, tree in trees.items()
               for scope in set(_enclosing_names(tree, "unit_lifts"))
               & set(_enclosing_names(tree, "simple_roots"))}
    assert pairing == {("weyl.py", "_orbit_pairings")}
    assert {module for module, tree in trees.items()
            if "group_sum" in _referenced_names(tree, set())} == {"galois.py"}
    imported = [f"{module}:{node.lineno}"
                for module in ("coweights.py", "satake.py") for node in ast.walk(trees[module])
                if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name == "group_order"]
    assert imported == []


def _imports_presets(tree):
    """Does tree import the preset registry, at any level?"""
    return any(
        "presets" in (getattr(node, "module", None) or "").split(".")
        or any("presets" in alias.name.split(".") for alias in node.names)
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)))


def test_only_the_front_ends_import_presets():
    """The mathematics reads no preset name: within the package only
    `__init__` (to re-export) and `cli` (to look names up) import
    `presets`, at any level."""
    importers = {module for module, tree in _sources().items() if _imports_presets(tree)}
    assert importers == {"__init__.py", "cli.py"}


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
    the substrate's `order_coordinates`, `order_inverse` and
    `kottwitz_rows` appear in no other module, `hasse_covers` is defined,
    and the all-pairs relation list `order_relations` is defined nowhere in
    the package."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    names = ("order_coordinates", "order_inverse", "kottwitz_rows")
    readers = {module for module, tree in trees.items()
               if set(names) & _referenced_names(tree, set())}
    assert readers == {"coweights.py"}
    defined = {n.rsplit(".", 1)[-1] for tree in trees.values() for n in _definitions(tree)}
    assert "hasse_covers" in defined and "order_relations" not in defined


def test_components_are_found_only_in_coweights():
    """Among `coweights`, `satake` and `suites`, a class's Kottwitz
    component is found from `pi1_coinvariants_presentation` only by the
    substrate's `kottwitz_rows`: `satake` no longer imports it, and in
    `suites` only the brute-force coset count of `_suite_exactness` reads
    it.  `galois.kottwitz_components` keeps its own read."""
    trees = _sources()
    modules = ("coweights.py", "satake.py", "suites.py")
    readers = {(module, scope) for module in modules
               for scope in _enclosing_names(trees[module], "pi1_coinvariants_presentation")}
    assert readers == {("coweights.py", "_Substrate.kottwitz_rows"),
                       ("suites.py", "_suite_exactness")}
    importers = {module for module in modules
                 if "pi1_coinvariants_presentation" in _referenced_names(trees[module], set())}
    assert importers == {"coweights.py", "suites.py"}


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


def _scopes_calling(tree, predicate):
    """Qualified names of the functions holding a call that predicate accepts."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call) and predicate(node):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _coord_bound_box(call):
    """Is call `range(-coord_bound, ...)`?"""
    return (isinstance(call.func, ast.Name) and call.func.id == "range" and call.args
            and isinstance(call.args[0], ast.UnaryOp) and isinstance(call.args[0].op, ast.USub)
            and isinstance(call.args[0].operand, ast.Name)
            and call.args[0].operand.id == "coord_bound")


def test_one_enumerator_scans_a_coordinate_box():
    """The absolute enumeration is the split case of the twisted one, so a
    box over `range(-coord_bound, ...)` is scanned in
    `coweights.enumerate_dominant_classes` alone, and `rootdatum`, which
    keeps the cone builders, imports no `itertools`."""
    trees = _sources()
    boxes = {(module, scope) for module, tree in trees.items()
             for scope in _scopes_calling(tree, _coord_bound_box)}
    assert boxes == {("coweights.py", "enumerate_dominant_classes")}
    imported = [node.lineno for node in ast.walk(trees["rootdatum.py"])
                if isinstance(node, ast.Import) and any(a.name == "itertools" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "itertools"]
    assert imported == []


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


# Public names and class members that only a test reads, each with that
# test; a member is written `Class.member`.  The guards below fail on an
# entry that is no longer defined or that something else reads.
READ_ONLY_BY_TESTS = {
    "adjoint_quotient": "tests/test_acceptance.py, criterion 5: the adjoint quotient of SU4",
    "fundamental_coweight_pairing": "tests/test_acceptance.py, criterion 5",
}


def _sources():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _methods(cls):
    """The functions a class body defines, dunders aside: those are called
    implicitly, so they are read with the class."""
    return [node for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _top_level(trees):
    """(public (module, name) pairs, public (module, class, member) triples,
    definitions, names read by module-level statements that define nothing).
    Definitions map a top-level name, or `.member` for a method of any
    class, to (node, nodes to skip) pairs: a class is read without the
    methods it defines, each of which is read only when it is reached.
    `__init__.py` imports to re-export, so it reads nothing; a private
    module has no public names."""
    public, members, definitions, roots = [], [], {}, set()
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        stem = module.removesuffix(".py")
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            methods = _methods(stmt) if isinstance(stmt, ast.ClassDef) else []
            for method in methods:
                definitions.setdefault("." + method.name, []).append((method, set()))
                if not method.name.startswith("_"):
                    members.append((stem, stmt.name, method.name))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                roots |= _referenced_names(stmt, set(), members=True)
                continue
            for name in names:
                definitions.setdefault(name, []).append((stmt, set(methods)))
                if not name.startswith("_") and not module.startswith("_"):
                    public.append((stem, name))
    return public, members, definitions, roots


def _outside_readers():
    """Identifiers in README's code (fenced blocks and `spans`) and anywhere
    in the bench's sources, which name traced functions in strings; an
    identifier written after a dot also reads the member of that name."""
    readme = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`]+`", readme, flags=re.S)
    bench = [path.read_text() for path in sorted(ROOT.glob("bench/**/*.py"))]
    text = " ".join(code + bench)
    return set(re.findall(r"\w+", text)) | set(re.findall(r"\.\w+", text))


def _listed(entries):
    """READ_ONLY_BY_TESTS entries as the keys `_live` reaches."""
    return {"." + entry.split(".")[1] if "." in entry else entry for entry in entries}


def _live(definitions, roots):
    """The names and `.member`s reached from roots, each definition reached
    reading on."""
    live, stack = set(), list(roots)
    while stack:
        name = stack.pop()
        if name in live or name not in definitions:
            continue
        live.add(name)
        for node, skip in definitions[name]:
            stack.extend(_referenced_names(node, skip, members=True) - live)
    return live


def _unread(trees, listed=READ_ONLY_BY_TESTS):
    """Public names and members that nothing reaches but the entries in listed."""
    public, members, definitions, roots = _top_level(trees)
    live = _live(definitions, roots | _outside_readers() | _listed(listed))
    return ([f"{module}.{name}" for module, name in public if name not in live],
            [f"{cls}.{member}" for _module, cls, member in members if "." + member not in live])


def test_every_public_name_has_a_reader():
    """Ship only what something reads: a public name whose only readers are
    tests moves to a test file, or is kept with its reader named in
    `READ_ONLY_BY_TESTS`."""
    trees = _sources()
    assert len(_top_level(trees)[0]) > 100, "no public names found; is the source path right?"
    assert _unread(trees)[0] == []


def test_every_public_member_has_a_reader():
    """The same for the public methods, properties and static methods of
    the package's classes: each is read as an attribute by code that
    something reaches, by README's code or by the bench, or is listed.
    Members are matched by name, so `IntMatrix.apply` also answers for a
    method `apply` of another class."""
    trees = _sources()
    assert len(_top_level(trees)[1]) > 40, "no members found; is the source path right?"
    assert _unread(trees)[1] == []


def _plant(trees, module, cls, source):
    """A copy of trees with the definitions in source added to class cls of
    module, or to the module itself when cls is None."""
    planted = dict(trees)
    tree = copy.deepcopy(trees[module])
    target = tree if cls is None else next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls)
    target.body += ast.parse(textwrap.dedent(source)).body
    planted[module] = tree
    return planted


def test_a_member_only_a_test_reads_is_reported():
    """A method that nothing in the package, README or the bench reads is
    reported, and so is a method that only it reads; listing the first
    clears both.  A member entry is stale once the member is gone, when
    something reads it, or when its class lacks it."""
    planted = _plant(_sources(), "abelian.py", "FgAbelianGroup", """
        def planted_unread(self):
            return self.planted_helper()

        def planted_helper(self):
            return self.free_rank
    """)
    assert _unread(planted)[1] == ["FgAbelianGroup.planted_unread", "FgAbelianGroup.planted_helper"]
    listed = {**READ_ONLY_BY_TESTS, "FgAbelianGroup.planted_unread": "a test"}
    assert _unread(planted, listed) == ([], [])
    assert _stale(planted, listed) == []
    assert _stale(_sources(), listed) == ["FgAbelianGroup.planted_unread"]
    stale = {"IntMatrix.apply": "a test", "IntMatrix.planted_unread": "a test"}
    assert _stale(planted, listed | stale) == list(stale)


# The members that left the package, as they stood there: those only tests
# read (moved to a test, or deleted as a restatement), and the per-datum
# records folded into `rootdatum.RootSystem`.
LEFT_THE_PACKAGE = {
    ("abelian.py", "IntMatrix"): """
        @staticmethod
        def zero(n, m):
            return IntMatrix(n, m, (0,) * (n * m))
    """,
    ("abelian.py", "FgAbelianGroup"): """
        @property
        def is_trivial(self):
            return self.free_rank == 0 and not self.invariant_factors
    """,
    ("abelian.py", "QuotientPresentation"): """
        def zero_class(self):
            return self.normal_form((0,) * (len(self.free_slots) + len(self.torsion_slots)))

        def add(self, c1, c2):
            return self.normal_form(vec_add(self.coordinates(c1), self.coordinates(c2)))

        def sub(self, c1, c2):
            return self.normal_form(vec_sub(self.coordinates(c1), self.coordinates(c2)))

        def scale(self, n, c):
            return self.normal_form(vec_scale(n, self.coordinates(c)))
    """,
    ("rep.py", "WeightMultiset"): """
        @property
        def support(self):
            return tuple(k for k, _m in self.entries)

        def multiplicity(self, key):
            return self.as_dict().get(key, 0)
    """,
    ("weyl.py", "WeylElement"): """
        def apply(self, v):
            return self.matrix.apply(v)

        @functools.cached_property
        def char_matrix(self):
            return self.inverse_matrix.transpose()

        def apply_char(self, chi):
            return self.char_matrix.apply(chi)

        @functools.cached_property
        def inverse_matrix(self):
            return self.matrix.inverse_unimodular()
    """,
    ("rootdatum.py", None): """
        @frozen
        class RhoData:
            datum: BasedRootDatum
            two_rho: tuple

            def two_rho_levi(self, subset):
                subset = frozenset(subset)
                if not subset <= set(range(self.datum.num_simple)):
                    raise DimensionMismatch("Levi subset out of range")
                system = full_root_system(self.datum)
                total = (0,) * self.datum.rank
                for root, _coroot in system.positive:
                    coords = system.simple_coordinates(root)
                    if all(c == 0 or i in subset for i, c in enumerate(coords)):
                        total = vec_add(total, root)
                return total

        @functools.lru_cache(maxsize=None)
        def rho_data(d: BasedRootDatum) -> RhoData:
            system = full_root_system(d)
            total = (0,) * d.rank
            for root, _coroot in system.positive:
                total = vec_add(total, root)
            for coroot in d.simple_coroots:
                if dot(coroot, total) != 2:
                    raise InvariantViolation("<alpha^vee, 2rho> != 2")
            return RhoData(datum=d, two_rho=total)
    """,
    ("rep.py", None): """
        @frozen
        class _FreudenthalData:
            positive: tuple
            coroots: tuple
            two_rho: tuple

            def norm(self, x):
                return sum(dot(c, x) ** 2 for c in self.coroots)

            def weyl_dimension(self, lam):
                num = den = 1
                for c in self.coroots:
                    r = dot(c, self.two_rho)
                    num *= 2 * dot(c, lam) + r
                    den *= r
                value, remainder = divmod(num, den)
                if remainder:
                    raise InvariantViolation("Weyl dimension is not an integer")
                return value

        @functools.lru_cache(maxsize=None)
        def _freudenthal_data(d: BasedRootDatum) -> _FreudenthalData:
            pairs = full_root_system(d).positive
            coroots = tuple(c for _r, c in pairs)
            positive = []
            for alpha, _coroot in pairs:
                q = (0,) * d.rank
                for c in coroots:
                    q = vec_add(q, vec_scale(dot(c, alpha), c))
                positive.append((alpha, q, dot(q, alpha)))
            return _FreudenthalData(
                positive=tuple(positive), coroots=coroots, two_rho=rho_data(d).two_rho,
            )
    """,
    ("presets.py", None): """
        @frozen
        class AmbientEmbedding:
            into_ambient: IntMatrix
            from_ambient: IntMatrix

            def to_internal(self, v):
                return self.from_ambient.apply(v)

            def to_ambient(self, v):
                return self.into_ambient.apply(v)
    """,
}


def test_members_that_left_the_package_are_reported():
    """Planted back, each member that left is reported, but for those whose
    name another reader shares: `add` (`set.add`, `operator.add`), `sub`
    (`operator.sub`), `WeylElement.apply` (`IntMatrix.apply`), the methods
    of `_FreudenthalData` and `RhoData` (now `RootSystem`'s), and `RhoData`,
    which the bench names in a span.  `_freudenthal_data` is reported as an
    unread private helper; `_FreudenthalData` is read only by it."""
    trees = _sources()
    for (module, cls), source in LEFT_THE_PACKAGE.items():
        trees = _plant(trees, module, cls, source)
    assert _unused_private(trees) == [("rep.py", "_freudenthal_data")]
    assert _unread(trees) == (["presets.AmbientEmbedding", "rootdatum.rho_data"], [
        "IntMatrix.zero", "FgAbelianGroup.is_trivial", "QuotientPresentation.zero_class",
        "QuotientPresentation.scale", "AmbientEmbedding.to_internal", "AmbientEmbedding.to_ambient",
        "WeightMultiset.support", "WeightMultiset.multiplicity", "WeylElement.char_matrix", "WeylElement.apply_char",
        "WeylElement.inverse_matrix",
    ])


def _stale(trees, listed):
    """The entries of listed that are no public name or `Class.member` of
    trees, or that something other than tests reads."""
    public, members, definitions, roots = _top_level(trees)
    live = _live(definitions, roots | _outside_readers())
    known = {name for _module, name in public} | {f"{cls}.{m}" for _module, cls, m in members}
    return [entry for entry in listed if entry not in known or _listed([entry]) <= live]


def test_names_read_only_by_tests_are_listed_exactly():
    """Each entry of `READ_ONLY_BY_TESTS` is a public name, or a public
    `Class.member`, that nothing but its test reads, so the list shrinks
    when a command starts reading one."""
    assert _stale(_sources(), READ_ONLY_BY_TESTS) == []

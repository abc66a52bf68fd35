"""Static checks of the package source, by the standard library's ast: no
module imports a name it never uses (each public name has one home, the
module _HOMES names, so no module re-exports one and no import is
exempt), and every module-level private name is referenced somewhere in
the package.  A function moved to another module leaves either behind
when its old home keeps the import or the helper.  A
construction result is made in one place, constructions._result, so every
construction reports its size, bound verdict and witness verdict by one
rule.  Scalar field arithmetic has one owner, scalar.py: field.py only
overrides mul and pow to read its exp/log pair, and multiplies no
polynomial."""

import ast
from pathlib import Path

import ffkakeya

SOURCES = {path.name: path.read_text()
           for path in sorted(Path(ffkakeya.__file__).parent.glob("*.py"))}
TREES = {name: ast.parse(text, name) for name, text in SOURCES.items()}


def loaded_names(tree) -> set:
    """Every name a module reads, and every attribute it reads of anything."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unused_imports(tree) -> list:
    """(line, name) of each name a module imports and never reads, other
    than from __future__."""
    used = loaded_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in used:
                unused.append((node.lineno, bound))
    return unused


def private_definitions(tree) -> list:
    """(line, name) of each function, class or variable a module defines at
    its top level under a name with one leading underscore."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        out += [(node.lineno, t) for t in targets if t.startswith("_") and not t.startswith("__")]
    return out


def calls_by_owner(tree, callee: str) -> list:
    """(owner, line) of each call to callee, by name or as an attribute;
    the owner is the top-level function or class around the call, or None."""
    calls = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        calls += [(owner, node.lineno) for node in ast.walk(top)
                  if isinstance(node, ast.Call) and callee in (
                      getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    return calls


# the scalar ops, the polynomial helpers and the modulus search
SCALAR_OWNED = ("add", "sub", "neg", "mul", "pow", "inv", "char", "smallest_nonsquare",
                "_digitwise_scalar", "element_to_coeffs", "coeffs_to_element",
                "_poly_rem", "_poly_mulmod", "_poly_powmod", "_poly_gcd", "_is_irreducible",
                "smallest_irreducible")
LOG_OVERRIDES = ("mul", "pow")


def functions(tree) -> dict:
    """Each function a module defines, at any depth, by name."""
    return {node.name: node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_no_module_imports_a_name_it_never_uses():
    unused = {name: found for name, tree in TREES.items() if (found := unused_imports(tree))}
    assert not unused


def test_no_module_exempts_an_import():
    assert not [name for name, text in SOURCES.items() if "noqa: F401" in text]


def test_every_private_name_is_referenced_in_the_package():
    imported = {alias.name for tree in TREES.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    referenced = imported.union(*map(loaded_names, TREES.values()))
    orphans = {name: [d for d in private_definitions(tree) if d[1] not in referenced]
               for name, tree in TREES.items()}
    assert not {name: found for name, found in orphans.items() if found}


def test_construction_results_have_one_builder():
    calls = [(name, owner) for name, tree in TREES.items()
             for owner, _ in calls_by_owner(tree, "ConstructionResult")]
    assert calls == [("constructions.py", "_result")]


def test_scalar_arithmetic_has_one_owner():
    homes = {name: sorted(module for module, tree in TREES.items() if name in functions(tree))
             for name in SCALAR_OWNED}
    assert homes == {name: ["field.py", "scalar.py"] if name in LOG_OVERRIDES else ["scalar.py"]
                     for name in SCALAR_OWNED}
    # the overrides read the logs and hand every other case to ScalarField
    for name in LOG_OVERRIDES:
        body = functions(TREES["field.py"])[name]
        assert not [node for node in ast.walk(body) if isinstance(
            node, (ast.For, ast.While, ast.comprehension))], name
        assert "super" in loaded_names(body) and "_logs" in loaded_names(body), name
    # and no module but scalar.py names a polynomial helper
    assert {module for module, tree in TREES.items()
            if any(n.startswith(("_poly_", "_is_irreducible", "_digitwise_scalar"))
                   for n in loaded_names(tree))} == {"scalar.py"}


def test_the_checks_find_what_they_look_for():
    text = ("import os\nfrom x import y  # noqa: F401\n_lost = 1\n\n\n"
            "def _used():\n    return 1\n\n\nz = _used()\n")
    tree = ast.parse(text)
    assert unused_imports(tree) == [(1, "os"), (2, "y")]  # noqa exempts nothing
    assert [d for d in private_definitions(tree) if d[1] not in loaded_names(tree)] == \
        [(3, "_lost")]
    text = ("R = Result(1)\n\n\ndef make():\n    return [Result(2), m.Result(3)]\n\n\n"
            "class C:\n    def f(self):\n        return Result(4)\n")
    assert calls_by_owner(ast.parse(text), "Result") == \
        [(None, 1), ("make", 5), ("make", 5), ("C", 10)]
    assert set(functions(ast.parse(text))) == {"make", "f"}

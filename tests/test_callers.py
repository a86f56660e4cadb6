"""Every function and class of ``decobs`` has a caller outside the tests, or a stated role.

A function or class has a caller when a module of ``src/decobs`` (its
``campaigns`` package included) or a script
under ``scripts/`` reads its name (as a name or an attribute) outside its own
body.  Reads inside the bodies of the functions
and classes listed in ``TEST_ONLY`` do not count, so one test-only name
cannot give another a caller.  Nor does a name read where the same top-level
definition binds it (a parameter or an assignment target), so a local
variable cannot give a function of the same name a caller.  A private
top-level function (``_name``, dunders aside) needs a read outside its own
body, where the bodies in ``TEST_ONLY`` count too: a helper of a test-only
function lives as long as that function does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "decobs"
SOURCES = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

#: Public functions and classes that only tests call, each with its role:
#: "oracle" for the scalar API that the tests replay the campaigns through or
#: check a kernel against, or the ROADMAP item that plans a caller for it.
TEST_ONLY = {
    **dict.fromkeys(
        (
            "haar_unitary", "purify_ancilla", "random_density", "random_hermitian", "random_projector_partition",
            "random_pure", "trial_stream",
        ),
        "oracle",
    ),
    **dict.fromkeys(("random_general_povm", "random_pppovm"), "ROADMAP 5"),
}


def top_level(kind) -> set[str]:
    """The names of the package's top-level definitions of an AST node ``kind``, dunders aside."""
    return {
        node.name
        for path in PACKAGE.rglob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, kind) and not node.name.startswith("__")
    }


def public_functions() -> set[str]:
    """The names of the public top-level functions of the package."""
    return {name for name in top_level(ast.FunctionDef) if not name.startswith("_")}


def public_classes() -> set[str]:
    """The names of the public top-level classes of the package."""
    return {name for name in top_level(ast.ClassDef) if not name.startswith("_")}


def reads() -> list[tuple[str, str | None]]:
    """(name read, enclosing top-level package function or class, or None) for every read in the sources."""
    found = []
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            in_package = path.is_relative_to(PACKAGE)
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and in_package else None
            nodes = list(ast.walk(top))
            local = {node.arg for node in nodes if isinstance(node, ast.arg)}
            local |= {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            for node in nodes:
                if isinstance(node, ast.Name) and node.id not in local:
                    found.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    found.append((node.attr, owner))
    return found


def has_caller(name: str, found) -> bool:
    return any(read == name and owner != name and owner not in TEST_ONLY for read, owner in found)


def test_every_public_function_has_a_caller_or_a_role():
    found = reads()
    assert sorted(name for name in public_functions() - TEST_ONLY.keys() if not has_caller(name, found)) == []


def test_every_public_class_has_a_caller_or_a_role():
    found = reads()
    assert sorted(name for name in public_classes() - TEST_ONLY.keys() if not has_caller(name, found)) == []


def test_no_listed_function_is_gone_or_has_gained_a_caller():
    defined, found = public_functions() | public_classes(), reads()
    assert sorted(name for name in TEST_ONLY if name not in defined or has_caller(name, found)) == []


def test_every_private_function_has_a_caller():
    found = reads()
    private = top_level(ast.FunctionDef) - public_functions()
    unread = [name for name in private if not any(read == name and owner != name for read, owner in found)]
    assert private and sorted(unread) == []

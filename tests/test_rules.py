"""Each kernel rule of the paper's maps has one implementation in ``decobs``.

The two maps come down to a few rules: an eigenvalue solve, the Bayes
update rho_k = D_k rho D_k^dagger / p_k of a branch, a partial trace, a Gram
product, and the byte planner that cuts stacks into blocks.  Each test reads
the package's source and checks that one rule is written in one place; the
others call it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "decobs"


def nodes():
    """(module, enclosing top-level function or class or None, node) for every AST node of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                yield path.stem, owner, node


def readers(name: str) -> set[tuple[str, str | None]]:
    """Where ``name`` is read, as a name, an attribute or an imported name."""
    found = set()
    for module, owner, node in nodes():
        read = (
            (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names))
        )
        if read:
            found.add((module, owner))
    return found


def test_eigenvalues_are_solved_on_one_path():
    assert readers("eigvalsh") == {("stacks", "_check_square_stack")}


def test_only_matcore_calls_einsum():
    callers = {
        module
        for module, _, node in nodes()
        if isinstance(node, ast.Call) and "einsum" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    }
    assert callers == {"matcore"}


def test_dead_branches_are_told_apart_in_stacks_and_entropy_only():
    # stacks normalizes every branch stack and cleans every probability row;
    # entropy skips the dead branches of an expected entropy
    assert {module for module, _ in readers("ZERO_PROBABILITY")} == {"stacks", "entropy"}


def budget_divisions() -> set[tuple[str, str | None]]:
    """Where a byte budget (a name ending in ``BYTES``, or ``budget``) is floor-divided."""
    found = set()
    for module, owner, node in nodes():
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
            dividend = node.left
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.FloorDiv):
            dividend = node.target
        else:
            continue
        names = {sub.id for sub in ast.walk(dividend) if isinstance(sub, ast.Name)}
        if any(name.endswith("BYTES") or name == "budget" for name in names):
            found.add((module, owner))
    return found


def test_byte_budgets_are_planned_in_one_place():
    assert budget_divisions() == {("stacks", "_blocks")}


def test_unit_row_overlaps_are_the_response_gram():
    calls = {
        node.func.id
        for module, owner, node in nodes()
        if (module, owner) == ("stacks", "gram_from_unit_rows")
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
    }
    assert "response_gram_stack" in calls

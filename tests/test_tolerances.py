"""Every tolerance lives in ``decobs.tolerances`` and nowhere else."""

import ast
from pathlib import Path

import pytest

from decobs import tolerances

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "decobs"
#: Every module of the package, the ``campaigns`` package's included.
MODULES = sorted(PACKAGE.rglob("*.py"))


def small_float_literals(path: Path) -> list[tuple[int, float]]:
    """The (line, value) of every float literal in (0, 1e-6) in a module."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < node.value < 1e-6
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p != PACKAGE / "tolerances.py"], ids=lambda p: p.relative_to(PACKAGE).as_posix()
)
def test_no_tolerance_literal_outside_the_table(path):
    assert small_float_literals(path) == []


def test_the_guard_sees_the_table():
    assert len(small_float_literals(PACKAGE / "tolerances.py")) == 20


def test_the_table_is_a_leaf_module():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_every_entry_is_a_positive_float():
    entries = {name: value for name, value in vars(tolerances).items() if name.isupper()}
    assert len(entries) == 20
    assert all(type(value) is float and value > 0.0 for value in entries.values())

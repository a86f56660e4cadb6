import ast
import inspect

from decobs import errors
from decobs.errors import ValidationError


def test_one_exception_class_named_by_its_invariant():
    tree = ast.parse(inspect.getsource(errors))
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == ["ValidationError"]
    assert issubclass(ValidationError, ValueError)


def test_message_format():
    # the CLI prints this message after "error: "
    err = ValidationError("x", 1.5e-3, "d")
    assert (err.invariant, err.residual, str(err)) == ("x", 1.5e-3, "x (residual 1.500e-03): d")
    assert str(ValidationError("x")) == "x"
    assert str(ValidationError("x", detail="d")) == "x: d"

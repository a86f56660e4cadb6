"""JSON wire formats shared by the library and the command-line harness.

A complex matrix is ``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with
row-major flat data; a vector is an n x 1 column.  A measurement, the one
value that ``povm-classify`` reads from a file, is ``{"object_dim",
"ancilla_dim", "ancilla_state", "unitary", "projectors"}``, each matrix in
that form.
"""

from __future__ import annotations

import json
import sys
from typing import Any

import numpy as np

from .errors import ValidationError
from .povm import Povm
from .states import DensityMatrix, ProjectorSet


def _is_number(value, kinds=(int, float)) -> bool:
    """A JSON number of the given kinds that a float can hold.

    bool is an int subclass in Python, so it is ruled out, as are integers
    beyond the float range; non-finite floats are left to the callers.
    """
    if isinstance(value, bool) or not isinstance(value, kinds):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def matrix_to_json(mat: np.ndarray) -> dict:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    rows, cols = arr.shape
    flat = arr.reshape(-1)
    return {
        "rows": rows,
        "cols": cols,
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_json(obj: Any, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValidationError("json-matrix-object", detail=f"{where}: expected an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ValidationError("json-matrix-keys", detail=f"{where}: missing {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not _is_number(rows, int) or not _is_number(cols, int) or rows < 1 or cols < 1:
        raise ValidationError("json-matrix-shape", detail=f"{where}: rows/cols must be positive integers")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValidationError(
            "json-matrix-data-length",
            detail=f"{where}: expected {rows * cols} entries, got {len(data) if isinstance(data, list) else type(data).__name__}",
        )
    out = np.empty(rows * cols, dtype=complex)
    for idx, entry in enumerate(data):
        if not (isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry))):
            raise ValidationError("json-matrix-entry", detail=f"{where}: entry {idx} is not [re, im] numbers")
        re, im = entry
        out[idx] = complex(float(re), float(im))
    if not np.all(np.isfinite(out)):
        raise ValidationError("json-matrix-finite", detail=f"{where}: non-finite entry")
    return out.reshape(rows, cols)


def povm_to_json(value: Povm) -> dict:
    return {
        "object_dim": value.object_dim,
        "ancilla_dim": value.ancilla_dim,
        "ancilla_state": matrix_to_json(value.ancilla_state.mat),
        "unitary": matrix_to_json(value.joint_unitary),
        "projectors": [matrix_to_json(p) for p in value.joint_projectors],
    }


def povm_from_json(obj: Any, where: str = "povm") -> Povm:
    if not isinstance(obj, dict):
        raise ValidationError("json-povm-object", detail=f"{where}: expected an object")
    for key in ("object_dim", "ancilla_dim", "ancilla_state", "unitary", "projectors"):
        if key not in obj:
            raise ValidationError("json-povm-keys", detail=f"{where}: missing {key!r}")
    for key in ("object_dim", "ancilla_dim"):
        if not _is_number(obj[key], int):
            raise ValidationError("json-povm-dims", detail=f"{where}: {key!r} must be an integer")
    projectors = obj["projectors"]
    if not isinstance(projectors, list) or not projectors:
        raise ValidationError("json-povm-projectors", detail=f"{where}: 'projectors' must be a non-empty list")
    return Povm(
        object_dim=obj["object_dim"],
        ancilla_dim=obj["ancilla_dim"],
        ancilla_state=DensityMatrix(matrix_from_json(obj["ancilla_state"], f"{where}.ancilla_state")),
        joint_unitary=matrix_from_json(obj["unitary"], f"{where}.unitary"),
        joint_projectors=ProjectorSet(
            tuple(matrix_from_json(m, f"{where}.projectors[{i}]") for i, m in enumerate(projectors))
        ),
    )


def load_povm(path: str) -> Povm:
    """Parse a measurement from a JSON file, with parse diagnostics."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                "json-parse", detail=f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError as exc:
            raise ValidationError("json-parse", detail=f"{path}: nesting too deep") from exc
    return povm_from_json(obj, where=path)

"""Dense complex matrix kernel.

Hermitian eigendecomposition, Schur and Kronecker products, partial traces,
and structural predicates, all with explicit absolute tolerances in max-norm.
Functions operate on plain numpy arrays, never mutate their inputs, and
return freshly allocated results.

Tensor layout convention: the first factor is block-major, i.e. the row index
``i * dim_second + k`` addresses factor states ``(i, k)``.  ``partial_trace``
uses the same layout as ``tensor_product``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotSquareError,
    ShapeMismatchError,
    ValidationError,
)

#: Default absolute max-norm tolerance for hermiticity/unitarity checks.
DEFAULT_TOL = 1e-10


def as_matrix(values) -> np.ndarray:
    """Coerce input to a 2-d complex array, rejecting NaN/Inf entries."""
    mat = np.asarray(values, dtype=complex)
    if mat.ndim != 2:
        raise ValidationError("matrix-rank", detail=f"expected 2-d array, got ndim={mat.ndim}")
    if mat.size and not np.all(np.isfinite(mat)):
        raise ValidationError("finite-entries", detail="matrix contains NaN or Inf")
    return mat


def max_abs(values) -> float:
    """Largest entrywise modulus (max-norm); 0 for empty input."""
    arr = np.asarray(values)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def sequential_sum(values) -> np.ndarray:
    """Sum over the last axis, added strictly left to right from 0.0.

    This is how a Python loop ``total += x`` (or ``sum`` on Python 3.11)
    adds one term at a time; ``np.sum`` would group the terms pairwise.
    ``cumsum`` adds left to right, and ``+ 0.0`` turns its -0.0 into the
    +0.0 that a sum started at 0.0 gives.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1])
    return np.cumsum(values, axis=-1)[..., -1] + 0.0


def require_square(values) -> np.ndarray:
    mat = as_matrix(values)
    if mat.shape[0] != mat.shape[1]:
        raise NotSquareError("square", detail=f"shape {mat.shape}")
    return mat


def square_stack(values) -> np.ndarray:
    """Coerce input to a complex (..., d, d) stack of square matrices.

    A single matrix is a stack with no leading axes.  Entries are not
    checked here: a stack validator checks them matrix by matrix.
    """
    mats = np.asarray(values, dtype=complex)
    if mats.ndim < 2:
        raise ValidationError("matrix-rank", detail=f"expected a stack of matrices, got ndim={mats.ndim}")
    if mats.shape[-1] != mats.shape[-2]:
        raise NotSquareError("square", detail=f"shape {mats.shape[-2:]}")
    return mats


def first_failure(bad: np.ndarray) -> int:
    """Flat index of the first True entry of a failure mask."""
    return int(np.argmax(np.ravel(bad)))


def hermiticity_residual(mat: np.ndarray) -> float:
    """Max-norm of M minus its conjugate transpose."""
    return max_abs(mat - mat.conj().T)


def is_hermitian(mat: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return hermiticity_residual(require_square(mat)) <= tol


def is_unitary(mat: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    mat = require_square(mat)
    gram = mat.conj().T @ mat
    return max_abs(gram - np.eye(mat.shape[0])) <= tol


def is_psd(mat: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian within tol and minimum eigenvalue >= -tol."""
    mat = require_square(mat)
    if hermiticity_residual(mat) > tol:
        return False
    lowest = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0]
    return bool(lowest >= -tol)


def hermitian_spectrum(mat: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted in non-increasing order.

    ``mat`` may also be a (..., d, d) stack; each matrix's spectrum then runs
    along the last axis of the result, bit for bit what the matrix alone
    gives.  Every matrix must be finite and Hermitian within ``tol`` in
    max-norm; a stack raises the error of its first failing matrix (in C
    order), with that matrix's residual.  Each matrix is symmetrized before
    the solve so the result does not depend on which triangle carries the
    rounding noise.
    """
    mats = square_stack(mat)
    adjoint = mats.conj().swapaxes(-1, -2)
    finite = np.isfinite(mats).all(axis=(-2, -1))
    with np.errstate(invalid="ignore"):
        residual = abs(mats - adjoint).max(axis=(-2, -1), initial=0.0)
        failed = ~finite | (residual > tol)
    if failed.any():
        first = first_failure(failed)
        if not np.ravel(finite)[first]:
            raise ValidationError("finite-entries", detail="matrix contains NaN or Inf")
        raise NotHermitianError("hermitian", residual=float(np.ravel(residual)[first]))
    symmetrized = np.add(mats, adjoint, out=adjoint)
    symmetrized /= 2.0
    ascending = np.linalg.eigvalsh(symmetrized)
    return ascending[..., ::-1].copy()


def schur_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product of two equal-shape matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ShapeMismatchError("equal-shape", detail=f"{a.shape} vs {b.shape}")
    return a * b


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with first-factor-major block layout."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(
    mat: np.ndarray, dim_first: int, dim_second: int, keep: str = "first"
) -> np.ndarray:
    """Trace out one tensor factor of a square matrix on a product space.

    ``keep`` selects the surviving factor ("first" or "second"); the total
    trace is preserved either way.
    """
    mat = require_square(mat)
    if dim_first < 1 or dim_second < 1 or mat.shape[0] != dim_first * dim_second:
        raise DimensionMismatchError(
            "factor-dimensions",
            detail=f"matrix dim {mat.shape[0]} != {dim_first} * {dim_second}",
        )
    blocks = mat.reshape(dim_first, dim_second, dim_first, dim_second)
    if keep == "first":
        return np.einsum("ikjk->ij", blocks)
    if keep == "second":
        return np.einsum("kikj->ij", blocks)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")

"""Dense complex matrix kernel.

Kronecker products, partial traces, the unitarity residual, and the two
input rules every check shares: finite entries and squareness.  This is the
bottom of the kernel layer: it imports :mod:`decobs.errors` and nothing
else of the package.  Hermitian spectra are the ``"hermitian"`` kind of
:func:`decobs.stacks.validate_stack`, which builds on this module.
Functions operate on plain numpy arrays, never mutate their inputs, and
return freshly allocated results.  The checks scan a matrix's entries once,
through :func:`require_finite`; the maps (:func:`tensor_product`,
:func:`partial_trace`) do not scan them, so a value's checked matrices are
not scanned again on their way into a measurement.

Tensor layout convention: the first factor is block-major, i.e. the row index
``i * dim_second + k`` addresses factor states ``(i, k)``.  ``partial_trace``
uses the same layout as ``tensor_product``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def as_matrix(values) -> np.ndarray:
    """Coerce input to a 2-d complex array; its entries are not checked here."""
    mat = np.asarray(values, dtype=complex)
    if mat.ndim != 2:
        raise ValidationError("matrix-rank", detail=f"expected 2-d array, got ndim={mat.ndim}")
    return mat


def require_finite(items, check=None):
    """``items``, or ``check(items)``, unless an entry is NaN or Inf: then "finite-entries" is raised.

    This is the package's one finiteness gate.  ``items`` is a stack of
    items along its first axis.  With ``check``, a function that raises the
    error of an item that fails it, the items before the first non-finite
    one are given to ``check`` before "finite-entries" is raised, so a stack
    raises the error of its first failing item in C order.  Every entry is
    scanned once.
    """
    items = np.asarray(items)
    finite = np.isfinite(items).all(axis=tuple(range(1, items.ndim)))
    if not finite.all():
        if check is not None:
            check(items[: first_failure(~finite)])
        raise ValidationError("finite-entries", detail="matrix contains NaN or Inf")
    return items if check is None else check(items)


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


def vector_norms(vectors) -> np.ndarray:
    """Euclidean norms of a (..., m) stack of complex vectors, shape (...).

    Each norm is sqrt(re . re + im . im), the two dot products taken as
    (1, m) @ (m, 1) matmuls on the real and imaginary views of C-contiguous
    rows, which is bit for bit the 1-D ``np.linalg.norm`` of each vector.
    Rows of other strides are copied to C order first: a matmul on their
    views may round differently.
    """
    rows = np.ascontiguousarray(vectors, dtype=complex)[..., None, :]
    re, im = rows.real, rows.imag
    squares = re @ re.swapaxes(-1, -2)
    squares += im @ im.swapaxes(-1, -2)
    return np.sqrt(squares[..., 0, 0])


def require_square(values) -> np.ndarray:
    """Coerce input to a finite square 2-d complex array: rank, then entries, then squareness."""
    return square_stack(require_finite(as_matrix(values)))


def square_stack(values) -> np.ndarray:
    """Coerce input to a complex (..., d, d) stack of square matrices.

    A single matrix is a stack with no leading axes.  This is the package's
    one squareness check.  Entries are not checked here: a stack validator
    gives them to :func:`require_finite` with its own checks.
    """
    mats = np.asarray(values, dtype=complex)
    if mats.ndim < 2:
        raise ValidationError("matrix-rank", detail=f"expected a stack of matrices, got ndim={mats.ndim}")
    if mats.shape[-1] != mats.shape[-2]:
        raise ValidationError("square", detail=f"shape {mats.shape[-2:]}")
    return mats


def first_failure(bad: np.ndarray) -> int:
    """Flat index of the first True entry of a failure mask."""
    return int(np.argmax(np.ravel(bad)))


def unitary_residual(mat: np.ndarray) -> float:
    """max|U^dagger U - I| of a square matrix whose entries are already checked finite."""
    return max_abs(mat.conj().T @ mat - np.eye(mat.shape[0]))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-d arrays, with first-factor-major block layout.

    A map, not a check: the entries are not scanned, so NaN or Inf comes
    out where it went in, for the check of the result to catch.
    """
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(
    mat: np.ndarray, dim_first: int, dim_second: int, keep: str = "first"
) -> np.ndarray:
    """Trace out one tensor factor of a square matrix on a product space.

    This is the package's one partial trace.  ``keep`` selects the surviving
    factor ("first" or "second"); the total trace is preserved either way.
    ``mat`` may also be a (..., D, D) stack, each matrix traced bit for bit
    as it is alone: :func:`~decobs.povm.apply_povm` traces the ancilla out
    of all its branches at once.  Like :func:`tensor_product`, it is a map
    and does not scan the entries.
    """
    mat = square_stack(mat)
    if dim_first < 1 or dim_second < 1 or mat.shape[-1] != dim_first * dim_second:
        raise ValidationError(
            "factor-dimensions",
            detail=f"matrix dim {mat.shape[-1]} != {dim_first} * {dim_second}",
        )
    blocks = mat.reshape(mat.shape[:-2] + (dim_first, dim_second, dim_first, dim_second))
    if keep == "first":
        return np.einsum("...ikjk->...ij", blocks)
    if keep == "second":
        return np.einsum("...kikj->...ij", blocks)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")

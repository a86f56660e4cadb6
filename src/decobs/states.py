"""Validated value types for states and measurement data.

Construction performs full invariant checking; instances hold read-only
arrays and can be shared freely between threads.  A failed check raises a
:class:`~decobs.errors.ValidationError` subtype naming the invariant and the
measured residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import matcore
from .errors import (
    InvalidPartitionError,
    NormViolationError,
    NotDiagonalBasisError,
    NotSquareError,
    ShapeMismatchError,
    ValidationError,
)

HERMITIAN_TOL = matcore.DEFAULT_TOL
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
UNIT_NORM_TOL = 1e-10
UNIT_DIAGONAL_TOL = 1e-10
IDEMPOTENT_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-9
COMPLETENESS_TOL = 1e-9
PROBABILITY_SUM_TOL = 1e-10
NEGATIVE_PROBABILITY_TOL = 1e-12

#: Largest block of a stack, in bytes, that :func:`validate_stack` checks at
#: once.  The checks allocate about three times the block, so this bounds
#: their memory whatever the stack size; the spectra do not depend on it.
_BLOCK_BYTES = 128 * 1024

#: Probabilities at or below this value are clamped to exactly zero and their
#: outcome states are exempt from validation.
ZERO_PROBABILITY = 1e-12


def _readonly(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_square_stack(mats: np.ndarray, kind: str) -> np.ndarray:
    """Every DensityMatrix or GramMatrix check on a finite (..., d, d) stack.

    Returns the ascending eigenvalues of each matrix.  The checks run for the
    whole stack at once; the error raised is the one the scalar type raises
    for the first failing matrix, in the scalar order of checks (Hermitian,
    then unit trace or unit diagonal, then PSD), with the same residual.
    """
    adjoint = mats.conj().swapaxes(-1, -2)
    work = mats - adjoint
    hermitian = abs(work).max(axis=(-2, -1), initial=0.0)
    if kind == "density":
        unit = abs(mats.trace(axis1=-2, axis2=-1) - 1.0)
        unit_invariant, unit_tol = "density-unit-trace", TRACE_TOL
    else:
        unit = abs(mats.diagonal(axis1=-2, axis2=-1) - 1.0).max(axis=-1, initial=0.0)
        unit_invariant, unit_tol = "gram-unit-diagonal", UNIT_DIAGONAL_TOL
    # the symmetrized matrices reuse the residual's buffer
    symmetrized = np.add(mats, adjoint, out=work)
    del adjoint
    symmetrized /= 2.0
    spectra = np.linalg.eigvalsh(symmetrized)
    lowest = spectra[..., 0] if mats.shape[-1] else np.zeros(mats.shape[:-2])
    failed = (hermitian > HERMITIAN_TOL) | (unit > unit_tol) | (lowest < -PSD_TOL)
    # a single matrix gives numpy scalars, whose .any() costs more than bool()
    if failed.any() if failed.ndim else failed:
        first = matcore.first_failure(failed)
        if hermitian.flat[first] > HERMITIAN_TOL:
            raise ValidationError(f"{kind}-hermitian", residual=float(hermitian.flat[first]))
        if unit.flat[first] > unit_tol:
            raise ValidationError(unit_invariant, residual=float(unit.flat[first]))
        raise ValidationError(f"{kind}-psd", residual=float(-lowest.flat[first]))
    return spectra


def validate_stack(mats, kind: str) -> np.ndarray:
    """Run the ``"density"`` or ``"gram"`` checks on a (..., d, d) stack.

    Every matrix gets the checks of :class:`DensityMatrix` or
    :class:`GramMatrix`: finite entries, Hermitian, unit trace or unit
    diagonal, and PSD.  The return value is the ascending ``eigvalsh``
    spectra of the symmetrized matrices, shape (..., d): the PSD check solves
    them anyway, and :func:`~decobs.matcore.hermitian_spectrum` of each
    matrix is the same spectrum reversed, bit for bit.

    A failing stack raises the error its first failing matrix (in C order)
    raises as a scalar type, with the same invariant and residual.
    """
    if kind not in ("density", "gram"):
        raise ValueError(f"kind must be 'density' or 'gram', got {kind!r}")
    mats = matcore.square_stack(mats)
    flat = mats.reshape((-1,) + mats.shape[-2:])
    spectra = np.empty(flat.shape[:-1])
    for block in _blocks(len(flat), flat[:1].nbytes):
        finite = np.isfinite(flat[block]).all(axis=(-2, -1))
        if not finite.all():
            # the matrices before the first non-finite one are checked first
            _check_square_stack(flat[block][: matcore.first_failure(~finite)], kind)
            raise ValidationError("finite-entries", detail="matrix contains NaN or Inf")
        spectra[block] = _check_square_stack(flat[block], kind)
    return spectra.reshape(mats.shape[:-1])


def _blocks(count: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of ``count`` stacked items, each block within :data:`_BLOCK_BYTES`.

    A validator checks one block at a time, in stack order, so its
    temporaries stay small whatever the stack size.
    """
    size = max(1, _BLOCK_BYTES // max(1, item_bytes))
    return [slice(start, start + size) for start in range(0, count, size)]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix.

    ``spectrum`` holds its eigenvalues in non-increasing order, read-only:
    the PSD check solves them, and they are bit for bit what
    :func:`~decobs.matcore.hermitian_spectrum` of ``mat`` returns.
    """

    mat: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = matcore.require_square(self.mat)
        spectrum = _check_square_stack(mat, "density")[::-1]
        object.__setattr__(self, "mat", _readonly(mat))
        object.__setattr__(self, "spectrum", _readonly(spectrum, dtype=float))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def unit_vector_norms(vectors) -> np.ndarray:
    """Run the :class:`PureState` checks on a (..., m) stack of vectors.

    Every vector must be non-empty and finite, with norm 1 within 1e-10.
    Returns the norms, shape (...).  Each norm is its own 1-D
    ``np.linalg.norm`` call: no stacked norm (``axis=-1``, matmul, einsum,
    ``vecdot``) rounds like it for m >= 4.  A failing stack raises the error
    of its first failing vector.
    """
    vectors = np.asarray(vectors, dtype=complex)
    flat = vectors.reshape(-1, vectors.shape[-1])
    norms = np.array([np.linalg.norm(v) for v in flat]).reshape(vectors.shape[:-1])
    finite = np.isfinite(vectors).all(axis=-1) & (vectors.shape[-1] > 0)
    with np.errstate(invalid="ignore"):
        residual = abs(norms - 1.0)
        failed = ~finite | (residual > UNIT_NORM_TOL)
    if failed.any():
        first = matcore.first_failure(failed)
        if not np.ravel(finite)[first]:
            raise ValidationError("pure-finite", detail="empty or non-finite amplitudes")
        raise NormViolationError("pure-unit-norm", residual=float(np.ravel(residual)[first]))
    return norms


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex column vector."""

    amp: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amp, dtype=complex).ravel()
        unit_vector_norms(amp)
        object.__setattr__(self, "amp", _readonly(amp))

    @property
    def dim(self) -> int:
        return self.amp.size


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian PSD matrix of pairwise overlaps with unit diagonal."""

    mat: np.ndarray

    def __post_init__(self):
        mat = matcore.require_square(self.mat)
        _check_square_stack(mat, "gram")
        object.__setattr__(self, "mat", _readonly(mat))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _check_unit_rows(mats: np.ndarray) -> None:
    """The ProbingMatrix check on a finite (..., n, m) stack: unit-norm rows."""
    norms = np.linalg.norm(mats, axis=-1)
    residual = np.max(np.abs(norms - 1.0), axis=-1, initial=0.0)
    failed = residual > UNIT_NORM_TOL
    if failed.any():
        raise NormViolationError("probing-unit-rows", residual=float(residual.flat[matcore.first_failure(failed)]))


def validate_probing_stack(mats) -> None:
    """Run the :class:`ProbingMatrix` checks on a (..., n, m) stack.

    A failing stack raises the error of its first failing matrix.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim < 2:
        raise ValidationError("matrix-rank", detail=f"expected a stack of matrices, got ndim={mats.ndim}")
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if not finite.all():
        _check_unit_rows(mats.reshape((-1,) + mats.shape[-2:])[: matcore.first_failure(~finite)])
        raise ValidationError("finite-entries", detail="matrix contains NaN or Inf")
    _check_unit_rows(mats)


@dataclass(frozen=True)
class ProbingMatrix:
    """Response-amplitude matrix with one unit-norm row per object state.

    Rows index object states (n of them), columns index the perception basis
    (m of them, not necessarily equal to n).  Unit rows guarantee that the
    row Gram matrix has unit diagonal.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = matcore.as_matrix(self.mat)
        _check_unit_rows(mat)
        object.__setattr__(self, "mat", _readonly(mat))

    @property
    def n_object(self) -> int:
        return self.mat.shape[0]

    @property
    def n_perception(self) -> int:
        return self.mat.shape[1]


def _projector_residuals(mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ProjectorSet residuals of a finite (n, k, d, d) stack of families.

    Returns the Hermitian and idempotent residuals, (n, k), the
    orthogonality residuals of the pairs (i, j), i < j, in the order the
    scalar loop visits them, (n, k (k - 1) / 2), and the completeness
    residuals, (n,).
    """
    slots, dim = mats.shape[-3], mats.shape[-1]
    hermitian = abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    square = mats @ mats
    square -= mats
    idempotent = abs(square).max(axis=(-2, -1), initial=0.0)
    del square
    orthogonal = np.empty((len(mats), slots * (slots - 1) // 2))
    done = 0
    for i in range(slots - 1):
        products = abs(mats[:, i : i + 1] @ mats[:, i + 1 :])
        orthogonal[:, done : done + slots - 1 - i] = products.max(axis=(-2, -1), initial=0.0)
        done += slots - 1 - i
    total = np.zeros((len(mats), dim, dim), dtype=complex)
    for k in range(slots):
        total += mats[:, k]
    total -= np.eye(dim)
    return hermitian, idempotent, orthogonal, abs(total).max(axis=(-2, -1), initial=0.0)


def _raise_projector_error(family: np.ndarray) -> None:
    """Raise the error a failing (k, d, d) family raises as a ProjectorSet."""
    hermitian, idempotent, orthogonal, complete = (r[0].tolist() for r in _projector_residuals(family[None]))
    for idx, (residual, idempotent_residual) in enumerate(zip(hermitian, idempotent)):
        if residual > HERMITIAN_TOL:
            raise ValidationError("projector-hermitian", residual=residual, detail=f"projector {idx}")
        if idempotent_residual > IDEMPOTENT_TOL:
            raise ValidationError("projector-idempotent", residual=idempotent_residual, detail=f"projector {idx}")
    pairs = [(i, j) for i in range(len(family)) for j in range(i + 1, len(family))]
    for (i, j), residual in zip(pairs, orthogonal):
        if residual > ORTHOGONALITY_TOL:
            raise ValidationError("projectors-orthogonal", residual=residual, detail=f"pair ({i}, {j})")
    raise ValidationError("projectors-complete", residual=complete)


def validate_projector_stack(mats) -> None:
    """Run the :class:`ProjectorSet` checks on a (..., k, d, d) stack of families.

    Each family is k slots of (d, d) matrices.  A family with fewer
    projectors is padded with dead slots, all-zero matrices: a zero matrix
    passes every check and adds exact zeros to the completeness sum, so a
    padded family checks as the family alone does, and trailing dead slots
    are not checked at all.

    The checks run in the scalar order: finite entries; then projector by
    projector, Hermitian and then idempotent; then orthogonality pair by
    pair (i < j); then completeness.  A failing stack raises the error its
    first failing family (in C order) raises as a ProjectorSet, with the
    same invariant, residual and detail.
    """
    mats = matcore.square_stack(mats)
    if mats.ndim < 3:
        raise ValidationError("matrix-rank", detail=f"expected a stack of projector families, got ndim={mats.ndim}")
    flat = mats.reshape((-1,) + mats.shape[-3:])
    finite = np.isfinite(flat).all(axis=(-3, -2, -1))
    live = flat.any(axis=(-2, -1))
    # families of equal length (last live slot + 1) are checked together on their live slots
    length = (live * np.arange(1, live.shape[-1] + 1)).max(axis=-1, initial=0)
    failed = ~finite
    for size in sorted(set(length[finite].tolist())):
        members = np.nonzero(finite & (length == size))[0]
        for block in _blocks(len(members), flat[0, :size].nbytes):
            chosen = members[block]
            hermitian, idempotent, orthogonal, complete = _projector_residuals(flat[chosen, :size])
            failed[chosen] = (
                (hermitian > HERMITIAN_TOL).any(axis=-1)
                | (idempotent > IDEMPOTENT_TOL).any(axis=-1)
                | (orthogonal > ORTHOGONALITY_TOL).any(axis=-1)
                | (complete > COMPLETENESS_TOL)
            )
    if failed.any():
        first = matcore.first_failure(failed)
        if not finite[first]:
            raise ValidationError("finite-entries", detail="matrix contains NaN or Inf")
        _raise_projector_error(flat[first])


@dataclass(frozen=True)
class ProjectorSet:
    """Complete family of mutually orthogonal Hermitian projectors."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = [matcore.require_square(p) for p in self.projectors]
        if not mats:
            raise ValidationError("projectors-nonempty")
        dim = mats[0].shape[0]
        for idx, p in enumerate(mats):
            if p.shape[0] != dim:
                raise ShapeMismatchError("projectors-same-dim", detail=f"projector {idx}")
        validate_projector_stack(np.array(mats))
        object.__setattr__(self, "projectors", tuple(_readonly(p) for p in mats))

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def __len__(self) -> int:
        return len(self.projectors)

    def __iter__(self):
        return iter(self.projectors)


@dataclass(frozen=True)
class Outcome:
    """One measurement branch: a probability and the conditioned state.

    ``state`` is None for zero-probability branches, whose conditioned state
    is undefined (0/0).
    """

    probability: float
    state: DensityMatrix | None


def clean_probabilities(probs, missing=None) -> np.ndarray:
    """Run the :class:`OutcomeEnsemble` probability checks on a (..., m) stack.

    Each row is one ensemble's branch probabilities.  Every entry must be
    finite and not below -1e-12; entries at or below :data:`ZERO_PROBABILITY`
    become exactly 0 (dead branches).  ``missing`` marks branches without a
    state, which must be dead.  Each row must sum to one within 1e-10, added
    left to right over k.

    Returns the cleaned probabilities.  A failing stack raises the error of
    its first failing row, in the scalar order of checks.
    """
    p = np.asarray(probs, dtype=float)
    with np.errstate(invalid="ignore"):
        cleaned = np.where(p <= ZERO_PROBABILITY, 0.0, p)
        entry_failed = ~np.isfinite(p) | (p < -NEGATIVE_PROBABILITY_TOL)
        if missing is not None:
            entry_failed |= np.asarray(missing, dtype=bool) & (cleaned > ZERO_PROBABILITY)
        residual = np.abs(matcore.sequential_sum(cleaned) - 1.0)
        failed = entry_failed.any(axis=-1) | (residual > PROBABILITY_SUM_TOL)
    if failed.any():
        first = matcore.first_failure(failed)
        row = p.reshape(failed.size, p.shape[-1])[first]
        for idx, value in enumerate(row):
            if not np.isfinite(value):
                raise ValidationError("outcome-probability-finite", detail=f"outcome {idx}")
            if value < -NEGATIVE_PROBABILITY_TOL:
                raise ValidationError(
                    "outcome-probability-nonnegative", residual=float(-value), detail=f"outcome {idx}"
                )
            if entry_failed.reshape(failed.size, row.size)[first, idx]:
                raise ValidationError("outcome-state-missing", detail=f"outcome {idx} has p={float(value)}")
        raise ValidationError("probabilities-sum-to-one", residual=float(residual.flat[first]))
    return cleaned


@dataclass(frozen=True)
class OutcomeEnsemble:
    """Probability-weighted collection of post-measurement states.

    Probabilities at or below :data:`ZERO_PROBABILITY` are clamped to exactly
    zero and their states are exempt from validation; every live branch must
    carry a valid :class:`DensityMatrix`.
    """

    outcomes: tuple[Outcome, ...]

    def __post_init__(self):
        probabilities = clean_probabilities(
            [float(out.probability) for out in self.outcomes],
            missing=[out.state is None for out in self.outcomes],
        )
        cleaned = tuple(
            out if p > 0.0 else Outcome(0.0, out.state) for out, p in zip(self.outcomes, probabilities)
        )
        object.__setattr__(self, "outcomes", cleaned)

    def live(self) -> tuple[Outcome, ...]:
        """Branches with nonzero probability."""
        return tuple(o for o in self.outcomes if o.probability > ZERO_PROBABILITY)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)


def basis_state(dim: int, index: int) -> PureState:
    """The computational basis vector |index> in the given dimension."""
    amp = np.zeros(dim, dtype=complex)
    amp[index] = 1.0
    return PureState(amp)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def density_from_pure(state: PureState) -> DensityMatrix:
    """Rank-1 projector |v><v| of a pure state."""
    return DensityMatrix(np.outer(state.amp, state.amp.conj()))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), between 1/dim and 1."""
    return float(np.trace(rho.mat @ rho.mat).real)


def gram_from_vectors(vectors: Sequence[PureState]) -> GramMatrix:
    """Overlap matrix E_ij = <v_j|v_i> of a family of unit vectors.

    Rows are renormalized before forming the overlaps.  The renormalized
    rows have unit norm only to rounding, so the diagonal is 1 within a few
    ulps, not exactly 1 (:func:`gram_from_unit_rows`).
    """
    if not vectors:
        raise ValidationError("gram-vectors-nonempty")
    dim = vectors[0].dim
    for idx, v in enumerate(vectors):
        if v.dim != dim:
            raise ShapeMismatchError("gram-vectors-same-dim", detail=f"vector {idx}")
    return GramMatrix(gram_from_unit_rows(np.array([v.amp for v in vectors])))


def gram_from_unit_rows(rows) -> np.ndarray:
    """Overlap matrices of a (..., n, m) stack of unit row families, not validated.

    Every row gets the :class:`PureState` checks, is divided by its own norm,
    and the overlaps are the products of the rows.  A renormalized row has
    norm 1 only to rounding, and so has each diagonal overlap: a diagonal
    entry can differ from 1.0 by a few ulps (for dim-1 families too).
    """
    rows = np.asarray(rows, dtype=complex)
    rows = rows / unit_vector_norms(rows)[..., None]
    return rows @ rows.conj().swapaxes(-1, -2)


def gram_from_projector_stack(mats) -> np.ndarray:
    """Block overlap matrices of a (..., k, d, d) stack of diagonal projector families.

    Each is sum_k outer(diag P_k, diag P_k), added left to right over k;
    dead (all-zero) slots add exact zeros.  Every projector must be diagonal
    within 1e-10; a failing stack raises the NotDiagonalBasisError of its
    first failing projector.  The result is not validated.
    """
    mats = np.asarray(mats, dtype=complex)
    slots, dim = mats.shape[-3], mats.shape[-1]
    off = np.where(np.eye(dim, dtype=bool), 0.0, abs(mats)).max(axis=(-2, -1), initial=0.0)
    failed = off > HERMITIAN_TOL
    if failed.any():
        first = matcore.first_failure(failed)
        raise NotDiagonalBasisError(
            "projector-diagonal", residual=float(np.ravel(off)[first]), detail=f"projector {first % slots}"
        )
    diagonal = mats.diagonal(axis1=-2, axis2=-1).real
    total = np.zeros(mats.shape[:-3] + (dim, dim), dtype=complex)
    for k in range(slots):
        total += diagonal[..., k, :, None] * diagonal[..., k, None, :]
    return total


def gram_from_projectors(projectors: ProjectorSet) -> GramMatrix:
    """Block overlap matrix E_ij = sum_k (P_k)_ii (P_k)_jj of a diagonal partition.

    The projectors must be diagonal in the working basis; the result has ones
    in the square blocks they pick out and zeros elsewhere.
    """
    return GramMatrix(gram_from_projector_stack(np.array(projectors.projectors)))


def block_projectors(block_sizes: Sequence[int], slots: int | None = None) -> np.ndarray:
    """Diagonal block projectors of the given sizes, in order, as a (slots, n, n) stack.

    ``slots`` defaults to the number of blocks; the slots past the blocks are
    dead (all-zero).  The sizes are not checked.
    """
    sizes = [int(s) for s in block_sizes]
    dim = sum(sizes)
    mats = np.zeros((len(sizes) if slots is None else slots, dim, dim), dtype=complex)
    index = np.arange(dim)
    mats[np.repeat(np.arange(len(sizes)), sizes), index, index] = 1.0
    return mats


def diagonal_projector_partition(block_sizes: Sequence[int]) -> ProjectorSet:
    """Diagonal block projectors of the given sizes, in order."""
    sizes = [int(s) for s in block_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise InvalidPartitionError("positive-block-sizes", detail=f"{sizes}")
    return ProjectorSet(tuple(block_projectors(sizes)))

"""Validated value types for states and measurement data.

Construction performs full invariant checking; instances hold read-only
arrays and can be shared freely between threads.  A failed check raises a
:class:`~decobs.errors.ValidationError` subtype naming the invariant and the
measured residual.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _first_failure(bad: np.ndarray) -> int:
    """Flat index of the first True entry of a failure mask."""
    return int(np.argmax(bad.ravel()))


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
        first = _first_failure(failed)
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
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim < 2:
        raise ValidationError("matrix-rank", detail=f"expected a stack of matrices, got ndim={mats.ndim}")
    if mats.shape[-1] != mats.shape[-2]:
        raise NotSquareError("square", detail=f"shape {mats.shape[-2:]}")
    flat = mats.reshape((-1,) + mats.shape[-2:])
    spectra = np.empty(flat.shape[:-1])
    # blocks bound the checks' temporaries; they run in stack order
    size = max(1, _BLOCK_BYTES // max(1, flat.itemsize * flat.shape[-1] ** 2))
    for start in range(0, len(flat), size):
        block = flat[start : start + size]
        finite = np.isfinite(block).all(axis=(-2, -1))
        if not finite.all():
            # the matrices before the first non-finite one are checked first
            _check_square_stack(block[: _first_failure(~finite)], kind)
            raise ValidationError("finite-entries", detail="matrix contains NaN or Inf")
        spectra[start : start + size] = _check_square_stack(block, kind)
    return spectra.reshape(mats.shape[:-1])


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix."""

    mat: np.ndarray

    def __post_init__(self):
        mat = matcore.require_square(self.mat)
        _check_square_stack(mat, "density")
        object.__setattr__(self, "mat", _readonly(mat))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex column vector."""

    amp: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amp, dtype=complex).ravel()
        if amp.size == 0 or not np.all(np.isfinite(amp)):
            raise ValidationError("pure-finite", detail="empty or non-finite amplitudes")
        residual = abs(float(np.linalg.norm(amp)) - 1.0)
        if residual > UNIT_NORM_TOL:
            raise NormViolationError("pure-unit-norm", residual=residual)
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
        raise NormViolationError("probing-unit-rows", residual=float(residual.flat[_first_failure(failed)]))


def validate_probing_stack(mats) -> None:
    """Run the :class:`ProbingMatrix` checks on a (..., n, m) stack.

    A failing stack raises the error of its first failing matrix.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim < 2:
        raise ValidationError("matrix-rank", detail=f"expected a stack of matrices, got ndim={mats.ndim}")
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if not finite.all():
        _check_unit_rows(mats.reshape((-1,) + mats.shape[-2:])[: _first_failure(~finite)])
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


@dataclass(frozen=True)
class ProjectorSet:
    """Complete family of mutually orthogonal Hermitian projectors."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = [matcore.require_square(p) for p in self.projectors]
        if not mats:
            raise ValidationError("projectors-nonempty")
        dim = mats[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for idx, p in enumerate(mats):
            if p.shape[0] != dim:
                raise ShapeMismatchError("projectors-same-dim", detail=f"projector {idx}")
            residual = matcore.hermiticity_residual(p)
            if residual > HERMITIAN_TOL:
                raise ValidationError("projector-hermitian", residual=residual, detail=f"projector {idx}")
            residual = matcore.max_abs(p @ p - p)
            if residual > IDEMPOTENT_TOL:
                raise ValidationError("projector-idempotent", residual=residual, detail=f"projector {idx}")
            total += p
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                residual = matcore.max_abs(mats[i] @ mats[j])
                if residual > ORTHOGONALITY_TOL:
                    raise ValidationError(
                        "projectors-orthogonal", residual=residual, detail=f"pair ({i}, {j})"
                    )
        residual = matcore.max_abs(total - np.eye(dim))
        if residual > COMPLETENESS_TOL:
            raise ValidationError("projectors-complete", residual=residual)
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
        first = _first_failure(failed)
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

    Rows are renormalized exactly before forming the overlaps, so the result
    always carries an exactly unit diagonal.
    """
    if not vectors:
        raise ValidationError("gram-vectors-nonempty")
    dim = vectors[0].dim
    for idx, v in enumerate(vectors):
        if v.dim != dim:
            raise ShapeMismatchError("gram-vectors-same-dim", detail=f"vector {idx}")
    rows = np.array([v.amp / np.linalg.norm(v.amp) for v in vectors])
    return GramMatrix(rows @ rows.conj().T)


def gram_from_projectors(projectors: ProjectorSet) -> GramMatrix:
    """Block overlap matrix E_ij = sum_k (P_k)_ii (P_k)_jj of a diagonal partition.

    The projectors must be diagonal in the working basis; the result has ones
    in the square blocks they pick out and zeros elsewhere.
    """
    dim = projectors.dim
    total = np.zeros((dim, dim), dtype=complex)
    for idx, p in enumerate(projectors):
        off = p - np.diag(p.diagonal())
        residual = matcore.max_abs(off)
        if residual > HERMITIAN_TOL:
            raise NotDiagonalBasisError("projector-diagonal", residual=residual, detail=f"projector {idx}")
        d = p.diagonal().real
        total += np.outer(d, d)
    return GramMatrix(total)


def diagonal_projector_partition(block_sizes: Sequence[int]) -> ProjectorSet:
    """Diagonal block projectors of the given sizes, in order."""
    sizes = [int(s) for s in block_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise InvalidPartitionError("positive-block-sizes", detail=f"{sizes}")
    dim = sum(sizes)
    mats = []
    start = 0
    for size in sizes:
        diag = np.zeros(dim)
        diag[start : start + size] = 1.0
        mats.append(np.diag(diag).astype(complex))
        start += size
    return ProjectorSet(tuple(mats))

"""Stack kernels: every check and map of the package on (..., d, d) stacks.

This is the layer the seeded campaigns run on.  Each function takes plain
numpy stacks of states, probings, Gram matrices or projector families and
returns plain arrays, and each is the only implementation of its check or
map: the value types of :mod:`decobs.states` call these kernels on one
item.  The two maps of the paper are here only: observation
(:func:`observe_stack`) and decoherence, the Schur product with
:func:`response_gram_stack`.  Every branch stack, a probing's or a
measurement's, is Bayes-updated by :func:`normalize_branches`.  A Lüders
measurement by a diagonal partition is the probing whose responses are
block indicators, so it has no kernel of its own: its pinching
(:func:`pinch`) is decoherence by the block Gram matrix,
:func:`response_gram_stack` of the diagonals of :func:`block_projectors`.
This module imports no value type, so a campaign loads none.

A failing stack raises the :class:`~decobs.errors.ValidationError` that its
first failing item (in C order) raises as a value type, with the same
invariant, residual and detail.  Every kernel rounds each item exactly as it
rounds that item alone, so a stack of one gives the scalar result bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import matcore
from .errors import ValidationError
from .tolerances import (
    COMPLETENESS_TOL, HERMITIAN_TOL, IDEMPOTENT_TOL, NEGATIVE_PROBABILITY_TOL, ORTHOGONALITY_TOL,
    PROBABILITY_SUM_TOL, PSD_TOL, TRACE_TOL, TRIVIALITY_TOL, UNIT_DIAGONAL_TOL, UNIT_NORM_TOL,
    ZERO_PROBABILITY,
)

#: Largest block of a stack, in bytes, that :func:`validate_stack` checks at
#: once.  The checks allocate about three times the block, so this bounds
#: their memory whatever the stack size; the spectra do not depend on it.
_BLOCK_BYTES = 128 * 1024


def _check_square_stack(mats: np.ndarray, kind: str) -> np.ndarray:
    """Every check of ``kind`` on a finite (..., d, d) stack.

    Returns the eigenvalues of each matrix, non-increasing.  The checks run
    for the whole stack at once; the error raised is the one the scalar type
    raises for the first failing matrix, in the scalar order of checks
    (Hermitian, then unit trace or unit diagonal, then PSD), with the same
    residual.  The ``"hermitian"`` kind stops after the first.
    """
    adjoint = mats.conj().swapaxes(-1, -2)
    work = mats - adjoint
    hermitian = abs(work).max(axis=(-2, -1), initial=0.0)
    if kind == "density":
        unit = abs(mats.trace(axis1=-2, axis2=-1) - 1.0)
        unit_invariant, unit_tol = "density-unit-trace", TRACE_TOL
    elif kind == "gram":
        unit = abs(mats.diagonal(axis1=-2, axis2=-1) - 1.0).max(axis=-1, initial=0.0)
        unit_invariant, unit_tol = "gram-unit-diagonal", UNIT_DIAGONAL_TOL
    # the symmetrized matrices reuse the residual's buffer
    symmetrized = np.add(mats, adjoint, out=work)
    del adjoint
    symmetrized /= 2.0
    spectra = np.linalg.eigvalsh(symmetrized)[..., ::-1]
    failed = hermitian > HERMITIAN_TOL
    if kind != "hermitian":
        lowest = spectra[..., -1] if mats.shape[-1] else np.zeros(mats.shape[:-2])
        failed |= (unit > unit_tol) | (lowest < -PSD_TOL)
    if failed.any():
        first = matcore.first_failure(failed)
        if hermitian.flat[first] > HERMITIAN_TOL:
            invariant = "hermitian" if kind == "hermitian" else f"{kind}-hermitian"
            raise ValidationError(invariant, residual=float(hermitian.flat[first]))
        if unit.flat[first] > unit_tol:
            raise ValidationError(unit_invariant, residual=float(unit.flat[first]))
        raise ValidationError(f"{kind}-psd", residual=float(-lowest.flat[first]))
    return spectra


def validate_stack(mats, kind: str) -> np.ndarray:
    """Run the ``"density"``, ``"gram"`` or ``"hermitian"`` checks on a (..., d, d) stack.

    Every matrix gets the checks of a density matrix or a Gram matrix:
    finite entries, Hermitian, unit trace or unit diagonal, and PSD.  The
    ``"hermitian"`` kind checks finite entries and Hermitian only, and
    raises ``finite-entries`` or ``hermitian``.  The return value is the
    spectra of the symmetrized matrices, non-increasing, shape (..., d):
    the PSD check solves them anyway, and they are what
    :func:`~decobs.matcore.hermitian_spectrum` returns.

    A failing stack raises the error its first failing matrix (in C order)
    raises as a value type, with the same invariant and residual.
    """
    if kind not in ("density", "gram", "hermitian"):
        raise ValueError(f"kind must be 'density', 'gram' or 'hermitian', got {kind!r}")
    mats = matcore.square_stack(mats)
    flat = _flat_stack(mats, 2)
    spectra = np.empty(flat.shape[:-1])
    for block in _blocks(len(flat), flat[:1].nbytes):
        finite = np.isfinite(flat[block]).all(axis=(-2, -1))
        if not finite.all():
            # the matrices before the first non-finite one are checked first
            _check_square_stack(flat[block][: matcore.first_failure(~finite)], kind)
            raise ValidationError("finite-entries", detail="matrix contains NaN or Inf")
        spectra[block] = _check_square_stack(flat[block], kind)
    return spectra.reshape(mats.shape[:-1])


def _flat_stack(arr: np.ndarray, item_ndim: int) -> np.ndarray:
    """``arr`` with its leading axes merged into one, before items of ``item_ndim`` axes.

    Unlike ``reshape(-1, ...)``, this also works on a stack of empty items.
    """
    return arr.reshape((math.prod(arr.shape[:-item_ndim]),) + arr.shape[-item_ndim:])


def _blocks(count: int, item_bytes: int, budget: int = _BLOCK_BYTES) -> list[slice]:
    """Consecutive slices of ``count`` stacked items, each within ``budget`` bytes or of one item.

    This is the package's one byte planner.  A validator checks one block at
    a time, in stack order, so its temporaries stay small whatever the stack
    size; the campaigns cut their trials into chunks, and a chunk's branches
    into blocks, with it.
    """
    size = max(1, budget // max(1, item_bytes))
    return [slice(start, start + size) for start in range(0, count, size)]


def unit_vector_norms(vectors) -> np.ndarray:
    """Run the ``PureState`` checks on a (..., m) stack of vectors.

    Every vector must be non-empty and finite, with norm 1 within
    :data:`~decobs.tolerances.UNIT_NORM_TOL`.  Returns the norms, shape (...),
    each bit for bit the 1-D ``np.linalg.norm`` of its vector
    (:func:`~decobs.matcore.vector_norms`).  A failing stack raises the error
    of its first failing vector.
    """
    vectors = np.asarray(vectors, dtype=complex)
    norms = matcore.vector_norms(vectors)
    finite = np.isfinite(vectors).all(axis=-1) & (vectors.shape[-1] > 0)
    with np.errstate(invalid="ignore"):
        residual = abs(norms - 1.0)
        failed = ~finite | (residual > UNIT_NORM_TOL)
    if failed.any():
        first = matcore.first_failure(failed)
        if not np.ravel(finite)[first]:
            raise ValidationError("pure-finite", detail="empty or non-finite amplitudes")
        raise ValidationError("pure-unit-norm", residual=float(np.ravel(residual)[first]))
    return norms


def _check_unit_rows(mats: np.ndarray) -> None:
    """The probing check on a finite (..., n, m) stack: unit-norm rows."""
    norms = np.linalg.norm(mats, axis=-1)
    residual = np.max(np.abs(norms - 1.0), axis=-1, initial=0.0)
    failed = residual > UNIT_NORM_TOL
    if failed.any():
        raise ValidationError("probing-unit-rows", residual=float(residual.flat[matcore.first_failure(failed)]))


def validate_probing_stack(mats) -> None:
    """Run the probing checks on a (..., n, m) stack: finite entries and unit-norm rows.

    Rows index object states, columns the perception basis; unit rows give
    the row Gram matrix a unit diagonal.  A failing stack raises the error
    of its first failing matrix.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim < 2:
        raise ValidationError("matrix-rank", detail=f"expected a stack of matrices, got ndim={mats.ndim}")
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if not finite.all():
        _check_unit_rows(mats.reshape((-1,) + mats.shape[-2:])[: matcore.first_failure(~finite)])
        raise ValidationError("finite-entries", detail="matrix contains NaN or Inf")
    _check_unit_rows(mats)


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
    """Run the ``ProjectorSet`` checks on a (..., k, d, d) stack of families.

    Each family is k slots of (d, d) matrices.  A family with fewer
    projectors is padded with dead slots, all-zero matrices: a zero matrix
    passes every check and adds exact zeros to the completeness sum, so a
    padded family checks as the family alone does, and trailing dead slots
    are not checked at all.

    The checks run in the scalar order: finite entries; then projector by
    projector, Hermitian and then idempotent; then orthogonality pair by
    pair (i < j); then completeness.  A failing stack raises the error its
    first failing family (in C order) raises as a ProjectorSet, with the
    same invariant, residual and detail; families without slots raise the
    ``projectors-nonempty`` of an empty ProjectorSet.
    """
    mats = matcore.square_stack(mats)
    if mats.ndim < 3:
        raise ValidationError("matrix-rank", detail=f"expected a stack of projector families, got ndim={mats.ndim}")
    flat = _flat_stack(mats, 3)
    if len(flat) and not flat.shape[1]:
        raise ValidationError("projectors-nonempty")
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


def clean_probabilities(probs) -> np.ndarray:
    """Run the branch probability checks on a (..., m) stack.

    Each row is one ensemble's branch probabilities: a probing's or a
    measurement's branches, or a mixture's weights.  Every entry must be
    finite and not below -NEGATIVE_PROBABILITY_TOL; entries at or below
    ZERO_PROBABILITY become exactly 0 (dead branches).  Each row must sum to
    one within PROBABILITY_SUM_TOL, added left to right over k.  The
    tolerances are those of :mod:`decobs.tolerances`.

    Returns the cleaned probabilities.  A failing stack raises the error of
    its first failing row, in the scalar order of checks.
    """
    p = np.asarray(probs, dtype=float)
    with np.errstate(invalid="ignore"):
        cleaned = np.where(p <= ZERO_PROBABILITY, 0.0, p)
        entry_failed = ~np.isfinite(p) | (p < -NEGATIVE_PROBABILITY_TOL)
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
        raise ValidationError("probabilities-sum-to-one", residual=float(residual.flat[first]))
    return cleaned


def gram_from_unit_rows(rows) -> np.ndarray:
    """Overlap matrices of a (..., n, m) stack of unit row families, not validated.

    Every row gets the ``PureState`` checks, is divided by its own norm, and
    the overlaps are the products of the rows.  A renormalized row has norm 1
    only to rounding, and so has each diagonal overlap: a diagonal entry can
    differ from 1.0 by a few ulps (for dim-1 families too).
    """
    rows = np.asarray(rows, dtype=complex)
    return response_gram_stack(rows / unit_vector_norms(rows)[..., None])


def block_projectors(partitions: Sequence[Sequence[int]], slots: int, dim: int) -> np.ndarray:
    """Diagonal block projectors of n partitions of dim, as an (n, slots, dim, dim) stack.

    Family i holds the projectors onto the consecutive blocks of
    ``partitions[i]``, in order; its slots past the blocks are dead
    (all-zero).  The whole stack is one scatter of ones onto the diagonal.
    The sizes are not checked: each partition must have at most ``slots``
    positive sizes adding up to ``dim``.
    """
    counts = np.array([len(sizes) for sizes in partitions], dtype=np.intp)
    sizes = np.array([size for part in partitions for size in part], dtype=np.intp)
    mats = np.zeros((len(counts), slots, dim, dim), dtype=complex)
    # each diagonal index of each family, with the slot of the block it lies in
    first_block = np.repeat(np.cumsum(counts) - counts, counts)
    slot = np.repeat(np.arange(len(sizes)) - first_block, sizes)
    index = np.tile(np.arange(dim), len(counts))
    mats[np.repeat(np.arange(len(counts)), dim), slot, index, index] = 1.0
    return mats


def observe_stack(rhos, probes) -> tuple[np.ndarray, np.ndarray]:
    """Observation branches of a (..., d, d) state stack under (..., d, m) probings.

    Returns the branch probabilities, shape (..., m), and the branch states
    rho_ij S_ik S_jk^* / p_k, shape (..., m, d, d), normalized by
    :func:`normalize_branches`, so a dead branch has probability exactly 0
    and an all-zero state.  The states are not validated.

    Every entry is rounded exactly as the one-branch-at-a-time formula
    rho * outer(S[:, k], S[:, k].conj()) / p_k rounds it, so a stack of one
    gives that formula bit for bit:

    - each p_k is a (1, d) @ (d, 1) product of the (strided) populations with
      the contiguous column weights, which numpy computes with the same dot
      as the 1-D ``populations @ weights[k]``; the matrix-vector form
      ``weights @ populations`` would reorder that sum, and so would a
      contiguous copy of the populations;
    - the masks S_ik S_jk^* are built by broadcasting, the same elementwise
      products as ``np.outer``; ``einsum`` rounds the complex products
      differently;
    - rho * mask, then / p_k, keeps that operand order and is done in place.
    """
    rhos = np.asarray(rhos, dtype=complex)
    probes = np.asarray(probes, dtype=complex)
    populations = rhos.diagonal(axis1=-2, axis2=-1).real
    columns = np.ascontiguousarray(probes.swapaxes(-1, -2))
    weights = np.abs(columns) ** 2
    probs = (populations[..., None, None, :] @ weights[..., None])[..., 0, 0]
    states = columns[..., :, None] * columns.conj()[..., None, :]
    np.multiply(rhos[..., None, :, :], states, out=states)
    return normalize_branches(probs, states)


def normalize_branches(probs: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bayes-update a (..., m) probability stack and its (..., m, d, d) unnormalized branches, in place.

    A branch with p_k at or below :data:`~decobs.tolerances.ZERO_PROBABILITY`
    is dead: its probability becomes exactly 0 and its state all zeros.
    Every live state is divided by its p_k, as the complex array
    ``state / p_k`` divides it.  Returns ``probs`` and ``states``; both must
    be writable float and complex arrays.
    """
    live = probs > ZERO_PROBABILITY
    probs[~live] = 0.0
    np.divide(states, np.where(live, probs, 1.0)[..., None, None], out=states)
    states[~live] = 0.0
    return probs, states


def average_stack(probs, states, out=None) -> np.ndarray:
    """Probability-weighted sums sum_k p_k rho_k over a (..., m, d, d) branch stack.

    The sum runs over k in order, one branch at a time; dead branches
    (p_k = 0, finite state) add exact zeros, so the sum over a stack's live
    branches alone has the same bits.  With ``out``, a complex
    (..., d, d) array, the branches are added to it in place and it is
    returned, so a branch stack cut along k into consecutive pieces sums,
    piece after piece from zeros, to the bits of the whole stack's sums.
    """
    probs = np.asarray(probs, dtype=float)
    states = np.asarray(states, dtype=complex)
    total = np.zeros(states.shape[:-3] + states.shape[-2:], dtype=complex) if out is None else out
    for k in range(states.shape[-3]):
        total += probs[..., k, None, None] * states[..., k, :, :]
    return total


def response_gram_stack(probes) -> np.ndarray:
    """Row Gram matrices S S^dagger of a (..., n, m) probing stack."""
    probes = np.asarray(probes)
    return probes @ probes.conj().swapaxes(-1, -2)


def pinch(projectors, mats) -> tuple[np.ndarray, np.ndarray]:
    """The pieces P_k H P_k and the pinching sum_k P_k H P_k of (..., d, d) matrices.

    ``projectors`` is a (..., k, d, d) stack of families, whose dead slots
    are all-zero matrices, and ``mats`` has the same leading shape.  Returns
    the pieces, shape (..., k, d, d), and their sum, shape (..., d, d), added
    left to right over k from 0; a dead slot's piece is not computed, is
    zero and adds exact zeros.  The triple products round as ``p @ h @ p``
    does for one matrix.
    """
    projectors = np.asarray(projectors, dtype=complex)
    mats = np.asarray(mats, dtype=complex)
    live = projectors.any(axis=(-2, -1))
    chosen = projectors[live]
    pieces = np.zeros_like(projectors)
    pieces[live] = chosen @ mats[np.nonzero(live)[:-1]] @ chosen
    total = np.zeros(pieces.shape[:-3] + pieces.shape[-2:], dtype=complex)
    for k in range(pieces.shape[-3]):
        total += pieces[..., k, :, :]
    return pieces, total


def spectra_unchanged(before, after) -> np.ndarray:
    """max_i |after_i - before_i| <= TRIVIALITY_TOL over the last axis of (..., d) spectra.

    Both stacks must be sorted the same way.  For Hermitian matrices,
    equality up to a unitary is spectral equality, so this is the triviality
    test of a probing or decoherence step.
    """
    return abs(np.asarray(after) - np.asarray(before)).max(axis=-1, initial=0.0) <= TRIVIALITY_TOL

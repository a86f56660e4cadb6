"""Vector majorization, the spectral-dominance checks, and the projector-family kernels they run on.

``lam majorizes mu`` means both sequences have the same total and every
prefix sum of lam (sorted descending) dominates the corresponding prefix sum
of mu.  For any concave h this forces sum h(lam) <= sum h(mu), which is the
engine behind every entropy inequality verified here.

Every dominance check sorts and prefix-sums each pair once, in
:func:`dominance`; the ``majorization`` campaign builds its rows from the
:class:`Dominance` results of the three stack kernels.  The kernels of
projector families live here too: their checks
(:func:`validate_projector_stack`, the ``ProjectorSet`` checks on a stack),
the diagonal block families of a chunk's partitions
(:func:`block_projectors`), the pinching (:func:`pinch`) and the Gram
matrices of unit response rows (:func:`gram_from_unit_rows`).  Only the
``majorization`` campaign and the value types (:mod:`decobs.states`, and
the measurement commands through it) run them, so an entropy campaign loads
none of this module.  A Lüders measurement by a diagonal partition is the
probing whose responses are block indicators, so it has no kernel of its
own: its pinching is decoherence by the block Gram matrix,
:func:`~decobs.stacks.response_gram_stack` of the diagonals of
:func:`block_projectors`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import matcore
from .errors import ValidationError
from .records import FrozenRecord
from .stacks import _blocks, _flat_stack, response_gram_stack, unit_vector_norms, validate_stack
from .tolerances import COMPLETENESS_TOL, HERMITIAN_TOL, IDEMPOTENT_TOL, ORTHOGONALITY_TOL


def _padded_descending(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Sort both stacks descending along the last axis, zero-padding the shorter one (and empty ones to [0])."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    size = max(a.shape[-1], b.shape[-1], 1)
    a = np.concatenate((a, np.zeros(a.shape[:-1] + (size - a.shape[-1],))), axis=-1)
    b = np.concatenate((b, np.zeros(b.shape[:-1] + (size - b.shape[-1],))), axis=-1)
    return -np.sort(-a, axis=-1), -np.sort(-b, axis=-1)


class Dominance(FrozenRecord):
    """cumsum(lam) - cumsum(mu) of pairs sorted descending, read at each pair's smallest margin.

    For one pair the fields other than ``margins`` are floats; for stacks
    of pairs they are arrays of the stacks' leading shape.
    """

    __slots__ = ("margins", "worst_margin", "dominator_prefix", "dominated_prefix", "sum_residual")

    def __init__(
        self,
        margins: np.ndarray,
        worst_margin: float,
        dominator_prefix: float,  # the prefix sums of lam and mu at the smallest margin
        dominated_prefix: float,
        sum_residual: float,  # |sum lam - sum mu|, from the last prefix sums
    ):
        self._set(margins, worst_margin, dominator_prefix, dominated_prefix, sum_residual)

    def holds(self, tol: float):
        """True when the totals agree within tol and every prefix margin is >= -tol (per pair)."""
        return (self.worst_margin >= -tol) & (self.sum_residual <= tol)


def dominance(lam, mu) -> Dominance:
    """Sort, pad and prefix-sum pairs once; every dominance check reads its result.

    ``lam`` and ``mu`` are sequences, or (..., n) and (..., m) stacks whose
    pairs run along the last axis; each pair is sorted, padded and summed
    as it would be alone.
    """
    lam, mu = _padded_descending(lam, mu)
    prefix_lam = np.cumsum(lam, axis=-1)
    prefix_mu = np.cumsum(mu, axis=-1)
    margins = prefix_lam - prefix_mu
    worst = np.argmin(margins, axis=-1)[..., None]
    fields = [
        np.take_along_axis(values, worst, axis=-1)[..., 0] for values in (margins, prefix_lam, prefix_mu)
    ]
    fields.append(abs(prefix_lam[..., -1] - prefix_mu[..., -1]))
    if margins.ndim == 1:
        fields = [float(value) for value in fields]
    return Dominance(margins, *fields)


def schur_dominance(lam_rho, schur) -> tuple[np.ndarray, Dominance]:
    """The spectra of Schur products rho o E and the dominance of the spectra of rho over them.

    ``lam_rho`` holds the spectra of the states, (..., d), and ``schur``
    the products, (..., d, d).
    """
    lam_schur = validate_stack(schur, "hermitian")
    return lam_schur, dominance(lam_rho, lam_schur)


def pinching_dominance(lam, hermitian, projectors) -> tuple[np.ndarray, np.ndarray, Dominance, Dominance]:
    """Both dominances around the pinchings of (..., d, d) matrices with spectra ``lam``.

    ``projectors`` is a (..., k, d, d) stack of families whose dead slots are
    all-zero matrices.  Returns the componentwise sums of the spectra of the
    pinched pieces P_k H P_k (added left to right over the live slots), the
    spectra of the pinched matrices, and the dominances parts >= lam (upper)
    and lam >= pinched (lower).
    """
    pieces, pinched = pinch(projectors, hermitian)
    live = np.asarray(projectors).any(axis=(-2, -1))
    piece_spectra = np.zeros(pieces.shape[:-1])
    piece_spectra[live] = validate_stack(pieces[live], "hermitian")
    del pieces
    parts = matcore.sequential_sum(piece_spectra.swapaxes(-1, -2))
    lam_pinched = validate_stack(pinched, "hermitian")
    return parts, lam_pinched, dominance(parts, lam), dominance(lam, lam_pinched)


def fan_dominance(a, b) -> tuple[np.ndarray, np.ndarray, Dominance]:
    """lambda(A) + lambda(B), lambda(A + B) and the dominance of the first over the second.

    ``a`` and ``b`` are Hermitian (..., d, d) stacks of the same shape; the
    three spectra of each pair come from one solve, in the order A, B, A + B.
    """
    spectra = validate_stack(np.stack((a, b, a + b), axis=-3), "hermitian")
    combined = spectra[..., 0, :] + spectra[..., 1, :]
    lam_sum = spectra[..., 2, :]
    return combined, lam_sum, dominance(combined, lam_sum)


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
    matcore.require_finite(flat, _check_projector_families)


def _check_projector_families(flat: np.ndarray) -> None:
    """The ProjectorSet checks on a finite (n, k, d, d) stack: raise its first failing family's error."""
    live = flat.any(axis=(-2, -1))
    # families of equal length (last live slot + 1) are checked together on their live slots
    length = (live * np.arange(1, live.shape[-1] + 1)).max(axis=-1, initial=0)
    failed = np.zeros(len(flat), dtype=bool)
    for size in sorted(set(length.tolist())):
        members = np.nonzero(length == size)[0]
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
        _raise_projector_error(flat[matcore.first_failure(failed)])


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

"""The two basic state-update maps and their special cases.

Decoherence multiplies the state entrywise by the environment-response
overlap matrix.  Observation conditions the state on a perceived outcome k:
branch k occurs with probability p_k = sum_i rho_ii |S_ik|^2 and rescales the
state entrywise by the outer product of probing column k, normalized by p_k.
Averaging the observation branches over k reproduces decoherence with the row
Gram matrix S S^dagger, so the two maps are two faces of one interaction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import matcore
from .errors import DimensionMismatchError, ShapeMismatchError, ValidationError
from .states import (
    DensityMatrix,
    GramMatrix,
    Outcome,
    OutcomeEnsemble,
    ProbingMatrix,
    ProjectorSet,
    PureState,
    ZERO_PROBABILITY,
)

#: G-S columns with residual norm below this are replaced by the next unused
#: basis vector when completing a unitary from its first column.
_SPAN_TOL = 1e-8

DEFAULT_TRIVIALITY_TOL = 1e-9


def decohere(rho: DensityMatrix, env_overlap: GramMatrix) -> DensityMatrix:
    """Entrywise product rho o E; suppresses off-diagonal structure."""
    return DensityMatrix(matcore.schur_product(rho.mat, env_overlap.mat))


def response_gram_stack(probes) -> np.ndarray:
    """Row Gram matrices S S^dagger of a (..., n, m) probing stack."""
    probes = np.asarray(probes)
    return probes @ probes.conj().swapaxes(-1, -2)


def response_gram(probe: ProbingMatrix) -> GramMatrix:
    """Row Gram matrix S S^dagger of a probing; unit rows give unit diagonal."""
    return GramMatrix(response_gram_stack(probe.mat))


def observe_stack(rhos, probes) -> tuple[np.ndarray, np.ndarray]:
    """Observation branches of a (..., d, d) state stack under (..., d, m) probings.

    Returns the branch probabilities, shape (..., m), and the branch states
    rho_ij S_ik S_jk^* / p_k, shape (..., m, d, d).  Dead branches (p_k at or
    below the zero threshold) get probability exactly 0 and an all-zero
    state.  The states are not validated.

    Every entry is rounded exactly as the one-branch-at-a-time form rounds
    it, so a stack of one gives :func:`observe` bit for bit:

    - each p_k is its own 1-D dot of the (strided) populations with the
      contiguous column weights; a batched matmul would reorder that sum;
    - the masks S_ik S_jk^* are built by broadcasting, the same elementwise
      products as ``np.outer``; ``einsum`` rounds the complex products
      differently;
    - rho * mask / p_k keeps that operand order and is done in place.
    """
    rhos = np.asarray(rhos, dtype=complex)
    probes = np.asarray(probes, dtype=complex)
    populations = rhos.diagonal(axis1=-2, axis2=-1).real
    columns = np.ascontiguousarray(probes.swapaxes(-1, -2))
    weights = np.abs(columns) ** 2
    probs = np.empty(columns.shape[:-1])
    for index in np.ndindex(populations.shape[:-1]):
        row = populations[index]
        for k, weight in enumerate(weights[index]):
            probs[index + (k,)] = row @ weight
    live = probs > ZERO_PROBABILITY
    probs[~live] = 0.0
    states = columns[..., :, None] * columns.conj()[..., None, :]
    np.multiply(rhos[..., None, :, :], states, out=states)
    np.divide(states, np.where(live, probs, 1.0)[..., None, None], out=states)
    states[~live] = 0.0
    return probs, states


def observe(rho: DensityMatrix, probe: ProbingMatrix) -> OutcomeEnsemble:
    """Condition rho on each perceived outcome.

    Branch k carries p_k = sum_i rho_ii |S_ik|^2 and the state with entries
    rho_ij S_ik S_jk^* / p_k.  Branches with p_k at or below the zero
    threshold are kept with probability exactly 0 and an undefined state.
    """
    if probe.n_object != rho.dim:
        raise ShapeMismatchError(
            "probing-rows-match-state",
            detail=f"probing has {probe.n_object} rows, state dim {rho.dim}",
        )
    probs, states = observe_stack(rho.mat, probe.mat)
    outcomes = tuple(
        Outcome(float(p), DensityMatrix(state)) if p > 0.0 else Outcome(0.0, None)
        for p, state in zip(probs, states)
    )
    return OutcomeEnsemble(outcomes)


def average_stack(probs, states) -> np.ndarray:
    """Probability-weighted sums sum_k p_k rho_k over a (..., m, d, d) branch stack.

    The sum runs over k in order, one branch at a time, as
    :func:`ensemble_average` adds up the live branches; dead branches
    (p_k = 0, finite state) add exact zeros.
    """
    probs = np.asarray(probs, dtype=float)
    states = np.asarray(states, dtype=complex)
    total = np.zeros(states.shape[:-3] + states.shape[-2:], dtype=complex)
    for k in range(states.shape[-3]):
        total += probs[..., k, None, None] * states[..., k, :, :]
    return total


def ensemble_average(ensemble: OutcomeEnsemble) -> DensityMatrix:
    """Probability-weighted average sum_k p_k rho_k of the live branches."""
    live = ensemble.live()
    if not live:
        raise ValidationError("ensemble-has-live-outcome")
    probs = [outcome.probability for outcome in live]
    return DensityMatrix(average_stack(probs, np.stack([outcome.state.mat for outcome in live])))


def luders(rho: DensityMatrix, projectors: ProjectorSet) -> DensityMatrix:
    """Pinching sum_k P_k rho P_k over a complete orthogonal projector family."""
    if projectors.dim != rho.dim:
        raise ShapeMismatchError(
            "projectors-match-state",
            detail=f"projector dim {projectors.dim}, state dim {rho.dim}",
        )
    return DensityMatrix(pinch(np.array(projectors.projectors), rho.mat)[1])


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


def spectra_unchanged(before, after, tol: float = DEFAULT_TRIVIALITY_TOL) -> np.ndarray:
    """max_i |after_i - before_i| <= tol over the last axis of (..., d) spectra.

    Both stacks must be sorted the same way.  For Hermitian matrices,
    equality up to a unitary is spectral equality, so this is the triviality
    test of a probing or decoherence step.
    """
    return abs(np.asarray(after) - np.asarray(before)).max(axis=-1, initial=0.0) <= tol


def _complete_unitary_from_first_column(first: np.ndarray) -> np.ndarray:
    """Unitary whose first column is the given unit vector.

    Remaining columns come from Gram-Schmidt over the computational basis;
    basis vectors whose residual drops below the span threshold are skipped
    in favor of the next unused one.
    """
    dim = first.size
    columns = [first.astype(complex)]
    for j in range(dim):
        if len(columns) == dim:
            break
        candidate = np.zeros(dim, dtype=complex)
        candidate[j] = 1.0
        for col in columns:
            candidate = candidate - col * np.vdot(col, candidate)
        norm = float(np.linalg.norm(candidate))
        if norm < _SPAN_TOL:
            continue
        columns.append(candidate / norm)
    if len(columns) != dim:
        raise ValidationError("unitary-completion", detail="could not complete an orthonormal basis")
    return np.column_stack(columns)


def probing_joint_unitary(responses: Sequence[PureState]) -> np.ndarray:
    """Joint unitary realizing a probing on object (x) ancilla.

    Maps |o_i> (x) |first basis vector> to |o_i> (x) |response_i>; it is
    block-diagonal with one ancilla-space unitary per object index.  Tracing
    the evolved joint state over the ancilla reproduces decoherence with the
    Gram matrix of the responses.
    """
    if not responses:
        raise DimensionMismatchError("responses-nonempty")
    dim = responses[0].dim
    for idx, response in enumerate(responses):
        if response.dim != dim:
            raise DimensionMismatchError("responses-same-dim", detail=f"response {idx}")
    n = len(responses)
    joint = np.zeros((n * dim, n * dim), dtype=complex)
    for i, response in enumerate(responses):
        block = _complete_unitary_from_first_column(response.amp)
        joint[i * dim : (i + 1) * dim, i * dim : (i + 1) * dim] = block
    return joint

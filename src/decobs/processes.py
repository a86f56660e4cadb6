"""The two basic state-update maps and their special cases.

Decoherence multiplies the state entrywise by the environment-response
overlap matrix.  Observation conditions the state on a perceived outcome k:
branch k occurs with probability p_k = sum_i rho_ii |S_ik|^2 and rescales the
state entrywise by the outer product of probing column k, normalized by p_k.
Averaging the observation branches over k reproduces decoherence with the row
Gram matrix S S^dagger, so the two maps are two faces of one interaction.

The maps here take and return value types.  Each is a kernel of
:mod:`decobs.stacks` (``observe_stack``, ``average_stack``,
``response_gram_stack``, ``pinch``) called on one item, which is what the
campaigns call on whole stacks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import matcore
from .errors import ValidationError
from .stacks import average_stack, observe_stack, pinch, response_gram_stack
from .states import (
    DensityMatrix,
    GramMatrix,
    Outcome,
    OutcomeEnsemble,
    ProbingMatrix,
    ProjectorSet,
    PureState,
)
from .tolerances import SPAN_TOL


def decohere(rho: DensityMatrix, env_overlap: GramMatrix) -> DensityMatrix:
    """Entrywise product rho o E; suppresses off-diagonal structure."""
    return DensityMatrix(matcore.schur_product(rho.mat, env_overlap.mat))


def response_gram(probe: ProbingMatrix) -> GramMatrix:
    """Row Gram matrix S S^dagger of a probing; unit rows give unit diagonal."""
    return GramMatrix(response_gram_stack(probe.mat))


def observe(rho: DensityMatrix, probe: ProbingMatrix) -> OutcomeEnsemble:
    """Condition rho on each perceived outcome.

    Branch k carries p_k = sum_i rho_ii |S_ik|^2 and the state with entries
    rho_ij S_ik S_jk^* / p_k.  Branches with p_k at or below the zero
    threshold are kept with probability exactly 0 and an undefined state.
    """
    if probe.n_object != rho.dim:
        raise ValidationError(
            "probing-rows-match-state",
            detail=f"probing has {probe.n_object} rows, state dim {rho.dim}",
        )
    probs, states = observe_stack(rho.mat, probe.mat)
    outcomes = tuple(
        Outcome(float(p), DensityMatrix(state)) if p > 0.0 else Outcome(0.0, None)
        for p, state in zip(probs, states)
    )
    return OutcomeEnsemble(outcomes)


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
        raise ValidationError(
            "projectors-match-state",
            detail=f"projector dim {projectors.dim}, state dim {rho.dim}",
        )
    return DensityMatrix(pinch(np.array(projectors.projectors), rho.mat)[1])


def _complete_unitary_from_first_column(first: np.ndarray) -> np.ndarray:
    """Unitary whose first column is the given unit vector.

    Remaining columns come from Gram-Schmidt over the computational basis;
    basis vectors whose residual drops below SPAN_TOL are skipped
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
        if norm < SPAN_TOL:
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
        raise ValidationError("responses-nonempty")
    dim = responses[0].dim
    for idx, response in enumerate(responses):
        if response.dim != dim:
            raise ValidationError("responses-same-dim", detail=f"response {idx}")
    n = len(responses)
    joint = np.zeros((n * dim, n * dim), dtype=complex)
    for i, response in enumerate(responses):
        block = _complete_unitary_from_first_column(response.amp)
        joint[i * dim : (i + 1) * dim, i * dim : (i + 1) * dim] = block
    return joint

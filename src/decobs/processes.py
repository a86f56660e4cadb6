"""Lüders pinching and the unitary dilation of a probing, on value types.

The two maps of the paper live in :mod:`decobs.stacks`, which the campaigns
run on whole stacks: observation is :func:`~decobs.stacks.observe_stack`,
and decoherence is the entrywise product ``rho * G`` with the Gram matrix of
:func:`~decobs.stacks.response_gram_stack`.  Averaging the observation
branches (:func:`~decobs.stacks.average_stack`) reproduces decoherence, so
the two maps are two faces of one interaction.  The pinching here is the
kernel ``pinch`` called on one item.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError
from .stacks import pinch
from .states import DensityMatrix, ProjectorSet, PureState
from .tolerances import SPAN_TOL


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

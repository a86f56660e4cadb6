"""Ancilla-dilated generalized measurements.

A measurement is specified by an ancilla state, a joint unitary on
object (x) ancilla (object factor first), and a complete orthogonal set of
joint projectors.  Applying it projects the evolved joint state on every
branch at once, traces out the ancilla, and normalizes, for a pure or a
mixed ancilla alike.  It returns branch stacks, as
:func:`~decobs.stacks.observe_stack` does for a probing, so the
``counterexample`` campaign checks and averages them with the campaigns'
own kernels.  A probing is such a measurement too, but it is not lifted to
one here: its dilation would only recompute ``observe_stack``'s branches.

Purity preservation is a structural property of the joint projectors: the map
sends every pure state to pure branch states exactly when each projector is
identity-on-object tensor a rank-1 ancilla projector, for some orthonormal
ancilla family.  The classification here assumes the canonical presentation
with a pure ancilla.

Two fixed reference measurements break the entropy inequalities in opposite
directions: a joint Bell-basis readout raises the expected entropy of a pure
input, and a swap-then-read ancilla overwrite erases a maximally mixed input.
Random measurements of both kinds come from :func:`random_pppovm` and
:func:`random_general_povm`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore, sampling
from .errors import ValidationError
from .stacks import clean_probabilities, normalize_branches, validate_stack
from .states import (
    DensityMatrix,
    ProjectorSet,
    PureState,
    basis_state,
    density_from_pure,
    haar_unitary,
    maximally_mixed,
    random_projector_partition,
    random_pure,
)
from .tolerances import HERMITIAN_TOL, PPPOVM_TOL


@dataclass(frozen=True, eq=False)
class Povm:
    """Ancilla state + joint unitary + joint projector family."""

    object_dim: int
    ancilla_dim: int
    ancilla_state: DensityMatrix
    joint_unitary: np.ndarray
    joint_projectors: ProjectorSet

    def __post_init__(self):
        if self.object_dim < 1 or self.ancilla_dim < 1:
            raise ValidationError("positive-dims")
        if self.ancilla_state.dim != self.ancilla_dim:
            raise ValidationError(
                "ancilla-state-dim",
                detail=f"state dim {self.ancilla_state.dim}, declared {self.ancilla_dim}",
            )
        unitary = matcore.require_square(self.joint_unitary)
        if unitary.shape[0] != self.joint_dim:
            raise ValidationError(
                "joint-unitary-dim", detail=f"got {unitary.shape[0]}, expected {self.joint_dim}"
            )
        # the entries were scanned by require_square, and U^dagger U is formed once
        residual = matcore.unitary_residual(unitary)
        if residual > HERMITIAN_TOL:
            raise ValidationError("joint-unitary", residual=residual)
        if self.joint_projectors.dim != self.joint_dim:
            raise ValidationError(
                "joint-projectors-dim",
                detail=f"got {self.joint_projectors.dim}, expected {self.joint_dim}",
            )
        frozen = np.array(unitary, dtype=complex)
        frozen.setflags(write=False)
        object.__setattr__(self, "joint_unitary", frozen)

    @property
    def joint_dim(self) -> int:
        return self.object_dim * self.ancilla_dim


def purify_ancilla(ancilla_state: DensityMatrix) -> PureState:
    """Pure state on a doubled space whose first-factor reduction is the input.

    Built from the eigendecomposition sum_i w_i |a_i><a_i| as
    sum_i sqrt(w_i) |a_i> (x) |a_i>.
    """
    sym = (ancilla_state.mat + ancilla_state.mat.conj().T) / 2.0
    weights, vectors = np.linalg.eigh(sym)
    weights = np.clip(weights[::-1], 0.0, None)
    vectors = vectors[:, ::-1]
    dim = ancilla_state.dim
    amp = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        amp += np.sqrt(weights[i]) * np.kron(vectors[:, i], vectors[:, i])
    return PureState(amp / np.linalg.norm(amp))


def apply_povm(rho: DensityMatrix, measurement: Povm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure rho: evolve rho (x) ancilla by the joint unitary, project it on
    every branch, trace out the ancilla, and normalize.

    Branch k is Tr_anc[P_k U (rho (x) sigma) U^dagger P_k] / p_k for the
    ancilla state sigma, pure or mixed, with p_k the trace of the reduced
    matrix.  Returns the branch stacks as :func:`~decobs.stacks.observe_stack`
    does: the probabilities, shape (k,), checked and cleaned by
    :func:`~decobs.stacks.clean_probabilities`; the states, shape (k, n, n),
    normalized by :func:`~decobs.stacks.normalize_branches`, so a dead
    branch has p_k exactly 0 and an all-zero state; and the spectra of the
    live branches, in k order, which :func:`~decobs.stacks.validate_stack`
    solves as it checks them as density matrices.

    All branches are built at once, each rounded as the one-projector
    ``P @ evolved @ P`` and :func:`~decobs.matcore.partial_trace` round it.
    """
    if rho.dim != measurement.object_dim:
        raise ValidationError(
            "state-object-dim",
            detail=f"state dim {rho.dim}, object dim {measurement.object_dim}",
        )
    n, d = rho.dim, measurement.ancilla_dim
    unitary = measurement.joint_unitary
    joint = matcore.tensor_product(rho.mat, measurement.ancilla_state.mat)
    evolved = unitary @ joint @ unitary.conj().T
    projectors = np.array(measurement.joint_projectors.projectors)
    reduced = matcore.partial_trace(projectors @ evolved @ projectors, n, d, keep="first")
    probs, states = normalize_branches(reduced.trace(axis1=-2, axis2=-1).real, reduced)
    spectra = validate_stack(states[probs > 0.0], "density")
    return clean_probabilities(probs), states, spectra


def ancilla_factors(measurement: Povm) -> list[np.ndarray] | None:
    """Recover the per-branch ancilla vectors of a purity-preserving measurement.

    Returns one unit vector per joint projector when every projector factors
    as identity-on-object tensor a rank-1 ancilla projector and the recovered
    vectors are mutually orthonormal, all within PPPOVM_TOL; None otherwise.
    """
    n = measurement.object_dim
    d = measurement.ancilla_dim
    vectors = []
    for projector in measurement.joint_projectors:
        reduced = matcore.partial_trace(projector, n, d, keep="second") / n
        sym = (reduced + reduced.conj().T) / 2.0
        _, eigvecs = np.linalg.eigh(sym)
        candidate = eigvecs[:, -1]
        rank_one = np.outer(candidate, candidate.conj())
        if matcore.max_abs(reduced - rank_one) > PPPOVM_TOL:
            return None
        if matcore.max_abs(matcore.tensor_product(np.eye(n), rank_one) - projector) > PPPOVM_TOL:
            return None
        vectors.append(candidate)
    overlaps = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
    if matcore.max_abs(overlaps - np.eye(len(vectors))) > PPPOVM_TOL:
        return None
    return vectors


def is_purity_preserving(measurement: Povm) -> bool:
    """Structural test: every joint projector is identity-on-object tensor a
    rank-1 projector onto one member of an orthonormal ancilla family."""
    return ancilla_factors(measurement) is not None


def counterexample_1() -> tuple[Povm, DensityMatrix]:
    """Joint Bell-basis readout of a qubit and a fresh ancilla qubit.

    Applied to the pure input |0><0| it yields two equiprobable maximally
    mixed branches (and two dead branches), so the expected entropy rises
    from 0 to ln 2: the observation inequality fails for this measurement.
    The entangled projectors do not factor, so it is not purity preserving.
    """
    s = 1.0 / np.sqrt(2.0)
    bell = [
        np.array([s, 0.0, 0.0, s], dtype=complex),
        np.array([s, 0.0, 0.0, -s], dtype=complex),
        np.array([0.0, s, s, 0.0], dtype=complex),
        np.array([0.0, s, -s, 0.0], dtype=complex),
    ]
    projectors = ProjectorSet(tuple(np.outer(v, v.conj()) for v in bell))
    measurement = Povm(
        object_dim=2,
        ancilla_dim=2,
        ancilla_state=density_from_pure(basis_state(2, 0)),
        joint_unitary=np.eye(4, dtype=complex),
        joint_projectors=projectors,
    )
    return measurement, density_from_pure(basis_state(2, 0))


def counterexample_2() -> tuple[Povm, DensityMatrix]:
    """Swap the object with a fresh ancilla, then read the ancilla.

    Applied to the maximally mixed input both branches are the fixed pure
    state |0><0| with probability 1/2 each, so the averaged state's entropy
    drops from ln 2 to 0: the decoherence inequality fails.  The pointer
    projectors factor, so this measurement is purity preserving.
    """
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 0] = swap[3, 3] = 1.0
    swap[1, 2] = swap[2, 1] = 1.0
    projectors = ProjectorSet(
        (
            np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex),
        )
    )
    measurement = Povm(
        object_dim=2,
        ancilla_dim=2,
        ancilla_state=density_from_pure(basis_state(2, 0)),
        joint_unitary=swap,
        joint_projectors=projectors,
    )
    return measurement, maximally_mixed(2)


def random_pppovm(object_dim: int, ancilla_dim: int, rng: np.random.Generator) -> Povm:
    """Random purity-preserving measurement: Haar joint unitary, pure random
    ancilla, and joint projectors that are identity-on-object tensor rank-1
    projectors onto a Haar-random orthonormal ancilla basis."""
    joint = haar_unitary(object_dim * ancilla_dim, rng)
    basis = haar_unitary(ancilla_dim, rng)
    eye = np.eye(object_dim, dtype=complex)
    projectors = tuple(
        matcore.tensor_product(eye, np.outer(basis[:, k], basis[:, k].conj()))
        for k in range(ancilla_dim)
    )
    return Povm(
        object_dim=object_dim,
        ancilla_dim=ancilla_dim,
        ancilla_state=density_from_pure(random_pure(ancilla_dim, rng)),
        joint_unitary=joint,
        joint_projectors=ProjectorSet(projectors),
    )


def random_general_povm(object_dim: int, ancilla_dim: int, rng: np.random.Generator) -> Povm:
    """Random measurement whose joint projectors are a Haar-conjugated block
    partition of the joint space; generically not purity preserving."""
    joint_dim = object_dim * ancilla_dim
    sizes = sampling.random_block_sizes(joint_dim, rng)
    return Povm(
        object_dim=object_dim,
        ancilla_dim=ancilla_dim,
        ancilla_state=density_from_pure(random_pure(ancilla_dim, rng)),
        joint_unitary=haar_unitary(joint_dim, rng),
        joint_projectors=random_projector_partition(joint_dim, sizes, rng),
    )

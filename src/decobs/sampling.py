"""Seeded random generation of test objects.

All streams are numpy PCG64 generators keyed by SeedSequence values.  A
campaign's trial t always draws from the child stream ``(seed, t)``, so
results are reproducible for a fixed seed regardless of how trials are
scheduled across workers.  Identical seeds give bit-identical draws across
runs on the same platform.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import matcore
from .errors import InvalidPartitionError
from .povm import Povm
from .states import (
    DensityMatrix,
    GramMatrix,
    Outcome,
    OutcomeEnsemble,
    ProbingMatrix,
    ProjectorSet,
    PureState,
    density_from_pure,
    diagonal_projector_partition,
    gram_from_vectors,
)


def stream(seed: int) -> np.random.Generator:
    """Root generator for a seed."""
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Child generator for trial index ``trial``, independent of call order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial),)))


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    """Standard complex Gaussian array (unit-variance real and imaginary parts)."""
    shape = (rows,) if cols is None else (rows, cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def draw_ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian n x n matrix with E|z_ij|^2 = 1: the raw draw of :func:`haar_unitary`."""
    return complex_gaussian(rng, n, n) / np.sqrt(2.0)


def haar_from_ginibre(z) -> np.ndarray:
    """Haar unitaries from the QR factors of a (..., n, n) complex Gaussian stack.

    The triangular factor's diagonal phases are divided out so the factor has
    positive real diagonal, which is what makes the distribution Haar rather
    than merely unitary.  A stacked QR factors each matrix bit for bit as it
    factors the matrix alone.
    """
    q, r = np.linalg.qr(z)
    diag = r.diagonal(axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return haar_from_ginibre(draw_ginibre(n, rng))


def draw_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Trace-normalized G G^dagger of a complex Gaussian G, not yet validated."""
    g = complex_gaussian(rng, n, n)
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_density(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Trace-normalized G G^dagger of a complex Gaussian G (full rank a.s.)."""
    return DensityMatrix(draw_density(n, rng))


def draw_pure(n: int, rng: np.random.Generator) -> np.ndarray:
    """A complex Gaussian vector divided by its norm, not yet validated."""
    amp = complex_gaussian(rng, n)
    return amp / np.linalg.norm(amp)


def random_pure(n: int, rng: np.random.Generator) -> PureState:
    return PureState(draw_pure(n, rng))


def draw_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian part (G + G^dagger) / 2 of a complex Gaussian G, not yet rescaled."""
    g = complex_gaussian(rng, n, n)
    return (g + g.conj().T) / 2.0


def unit_spectral_radius(h) -> np.ndarray:
    """A (..., n, n) Hermitian stack rescaled to unit spectral radius; zero matrices stay."""
    h = np.asarray(h, dtype=complex)
    radius = abs(np.linalg.eigvalsh(h)).max(axis=-1, initial=0.0)[..., None, None]
    return np.divide(h, radius, out=h.copy(), where=radius > 0)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix rescaled to unit spectral radius."""
    return unit_spectral_radius(draw_hermitian(n, rng))


def draw_responses(n: int, response_dim: int, rng: np.random.Generator) -> np.ndarray:
    """n random unit vectors of the given dimension, shape (n, response_dim), not yet validated.

    Each vector is divided by its own norm, as :func:`random_pure` divides it.
    """
    return np.array([draw_pure(response_dim, rng) for _ in range(n)]).reshape(n, response_dim)


def random_gram(n: int, response_dim: int, rng: np.random.Generator) -> GramMatrix:
    """Overlap matrix of n random pure responses of the given dimension.

    response_dim = 1 gives phase-only (rank-1, unit-modulus) overlaps; large
    response_dim approaches the identity in expectation.
    """
    return gram_from_vectors([PureState(v) for v in draw_responses(n, response_dim, rng)])


def draw_probing(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """n independent random unit rows of length m, not yet validated."""
    rows = complex_gaussian(rng, n, m)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_probing(n: int, m: int, rng: np.random.Generator) -> ProbingMatrix:
    """n independent random unit rows of length m."""
    return ProbingMatrix(draw_probing(n, m, rng))


def random_block_sizes(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniformly random composition of n into 1..n positive parts."""
    count = int(rng.integers(1, n + 1))
    if count == 1:
        return (n,)
    cuts = np.sort(rng.choice(np.arange(1, n), size=count - 1, replace=False))
    edges = np.concatenate(([0], cuts, [n]))
    return tuple(int(b - a) for a, b in zip(edges[:-1], edges[1:]))


def conjugated_projectors(basis, projectors) -> np.ndarray:
    """U P_k U^dagger for (..., n, n) unitaries and (..., k, n, n) projector families.

    Each product rounds as ``u @ p @ u.conj().T`` does for one matrix; dead
    (all-zero) slots are not computed and stay zero.  ``basis`` has the
    leading shape of the families.
    """
    basis = np.asarray(basis, dtype=complex)
    projectors = np.asarray(projectors, dtype=complex)
    live = projectors.any(axis=(-2, -1))
    owners = basis[np.nonzero(live)[:-1]]
    out = np.zeros_like(projectors)
    out[live] = owners @ projectors[live] @ owners.conj().swapaxes(-1, -2)
    return out


def random_projector_partition(
    n: int, block_sizes: Sequence[int], rng: np.random.Generator
) -> ProjectorSet:
    """Diagonal block partition of the stated sizes, conjugated by a Haar unitary."""
    sizes = [int(s) for s in block_sizes]
    if sum(sizes) != n or any(s < 1 for s in sizes):
        raise InvalidPartitionError("blocks-partition-dim", detail=f"{sizes} vs n={n}")
    basis = haar_unitary(n, rng)
    diagonal = diagonal_projector_partition(sizes)
    return ProjectorSet(tuple(conjugated_projectors(basis, np.array(diagonal.projectors))))


def random_simplex(k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the probability simplex."""
    return rng.dirichlet(np.ones(k))


def draw_ensemble(dim: int, size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Simplex weights, shape (size,), and states, shape (size, dim, dim), not yet validated."""
    probs = random_simplex(size, rng)
    return probs, np.array([draw_density(dim, rng) for _ in range(size)]).reshape(size, dim, dim)


def random_ensemble(dim: int, size: int, rng: np.random.Generator) -> OutcomeEnsemble:
    """Random mixture: simplex-distributed weights over random density matrices."""
    probs, mats = draw_ensemble(dim, size, rng)
    return OutcomeEnsemble(tuple(Outcome(float(p), DensityMatrix(mat)) for p, mat in zip(probs, mats)))


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
    sizes = random_block_sizes(joint_dim, rng)
    return Povm(
        object_dim=object_dim,
        ancilla_dim=ancilla_dim,
        ancilla_state=density_from_pure(random_pure(ancilla_dim, rng)),
        joint_unitary=haar_unitary(joint_dim, rng),
        joint_projectors=random_projector_partition(joint_dim, sizes, rng),
    )

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


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The triangular factor's diagonal phases are divided out so the factor has
    positive real diagonal, which is what makes the distribution Haar rather
    than merely unitary.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    z = complex_gaussian(rng, n, n) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = r.diagonal()
    phases = diag / np.abs(diag)
    return q * phases


def draw_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Trace-normalized G G^dagger of a complex Gaussian G, not yet validated."""
    g = complex_gaussian(rng, n, n)
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_density(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Trace-normalized G G^dagger of a complex Gaussian G (full rank a.s.)."""
    return DensityMatrix(draw_density(n, rng))


def random_pure(n: int, rng: np.random.Generator) -> PureState:
    amp = complex_gaussian(rng, n)
    return PureState(amp / np.linalg.norm(amp))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix rescaled to unit spectral radius."""
    g = complex_gaussian(rng, n, n)
    h = (g + g.conj().T) / 2.0
    radius = matcore.max_abs(np.linalg.eigvalsh(h))
    return h / radius if radius > 0 else h


def random_gram(n: int, response_dim: int, rng: np.random.Generator) -> GramMatrix:
    """Overlap matrix of n random pure responses of the given dimension.

    response_dim = 1 gives phase-only (rank-1, unit-modulus) overlaps; large
    response_dim approaches the identity in expectation.
    """
    vectors = [random_pure(response_dim, rng) for _ in range(n)]
    return gram_from_vectors(vectors)


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


def random_projector_partition(
    n: int, block_sizes: Sequence[int], rng: np.random.Generator
) -> ProjectorSet:
    """Diagonal block partition of the stated sizes, conjugated by a Haar unitary."""
    sizes = [int(s) for s in block_sizes]
    if sum(sizes) != n or any(s < 1 for s in sizes):
        raise InvalidPartitionError("blocks-partition-dim", detail=f"{sizes} vs n={n}")
    basis = haar_unitary(n, rng)
    diagonal = diagonal_projector_partition(sizes)
    return ProjectorSet(tuple(basis @ p @ basis.conj().T for p in diagonal))


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

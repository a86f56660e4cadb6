"""Seeded random generation of test objects.

All streams are numpy PCG64 generators keyed by SeedSequence values.  A
campaign's trial t always draws from the child stream ``(seed, t)``, so
results are reproducible for a fixed seed regardless of how trials are
scheduled across workers.  Identical seeds give bit-identical draws across
runs on the same platform.

Every Gaussian object is made in two steps: a block of standard normals,
then a transform (``*_from_normals``) that turns a (..., k) stack of such
blocks into a stack of objects.  A draw of k normals in one generator call
gives the same numbers as the calls it spans, so a campaign fills one block
per trial and transforms a whole chunk at once.  Each transform rounds
every object as it rounds that object alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import matcore
from .errors import ValidationError
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


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Child generator for trial index ``trial``, independent of call order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial),)))


def complex_from_normals(raw, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Gaussians of the given shape from a (..., k) stack of standard normals.

    The first half of each block holds the real parts and the second half
    the imaginary parts, each in C order; k is twice the size of ``shape``.
    """
    raw = np.asarray(raw, dtype=float)
    lead, half = raw.shape[:-1], raw.shape[-1] // 2
    out = 1j * raw[..., half:].reshape(lead + shape)
    # the same sums as real + 1j * imag, without a second complex temporary
    out += raw[..., :half].reshape(lead + shape)
    return out


def ginibre_from_normals(raw, n: int) -> np.ndarray:
    """Complex Gaussian n x n matrices with E|z_ij|^2 = 1 from (..., 2 n^2) normals."""
    return complex_from_normals(raw, (n, n)) / np.sqrt(2.0)


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
    return haar_from_ginibre(ginibre_from_normals(rng.standard_normal(2 * n * n), n))


def density_from_normals(raw, n: int) -> np.ndarray:
    """Trace-normalized G G^dagger of the complex Gaussians G of (..., 2 n^2) normals, not validated."""
    g = complex_from_normals(raw, (n, n))
    mats = g @ g.conj().swapaxes(-1, -2)
    mats /= mats.trace(axis1=-2, axis2=-1).real[..., None, None]
    return mats


def random_density(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Trace-normalized G G^dagger of a complex Gaussian G (full rank a.s.)."""
    return DensityMatrix(density_from_normals(rng.standard_normal(2 * n * n), n))


def pure_from_normals(raw, n: int) -> np.ndarray:
    """Complex Gaussian vectors of (..., 2 n) normals, each divided by its norm, not validated."""
    amp = complex_from_normals(raw, (n,))
    return amp / matcore.vector_norms(amp)[..., None]


def random_pure(n: int, rng: np.random.Generator) -> PureState:
    return PureState(pure_from_normals(rng.standard_normal(2 * n), n))


def hermitian_from_normals(raw, n: int) -> np.ndarray:
    """Hermitian parts (G + G^dagger) / 2 of the complex Gaussians G of (..., 2 n^2) normals."""
    g = complex_from_normals(raw, (n, n))
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def unit_spectral_radius(h) -> np.ndarray:
    """A (..., n, n) Hermitian stack rescaled to unit spectral radius; zero matrices stay."""
    h = np.asarray(h, dtype=complex)
    radius = abs(np.linalg.eigvalsh(h)).max(axis=-1, initial=0.0)[..., None, None]
    return np.divide(h, radius, out=h.copy(), where=radius > 0)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix rescaled to unit spectral radius."""
    return unit_spectral_radius(hermitian_from_normals(rng.standard_normal(2 * n * n), n))


def random_gram(n: int, response_dim: int, rng: np.random.Generator) -> GramMatrix:
    """Overlap matrix of n random pure responses of the given dimension.

    response_dim = 1 gives phase-only (rank-1, unit-modulus) overlaps; large
    response_dim approaches the identity in expectation.
    """
    vectors = pure_from_normals(rng.standard_normal((n, 2 * response_dim)), response_dim)
    return gram_from_vectors([PureState(v) for v in vectors])


def probing_from_normals(raw, n: int, m: int) -> np.ndarray:
    """n x m complex Gaussians of (..., 2 n m) normals with every row divided by its norm, not validated."""
    rows = complex_from_normals(raw, (n, m))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def random_probing(n: int, m: int, rng: np.random.Generator) -> ProbingMatrix:
    """n independent random unit rows of length m."""
    return ProbingMatrix(probing_from_normals(rng.standard_normal(2 * n * m), n, m))


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
        raise ValidationError("blocks-partition-dim", detail=f"{sizes} vs n={n}")
    basis = haar_unitary(n, rng)
    diagonal = diagonal_projector_partition(sizes)
    return ProjectorSet(tuple(conjugated_projectors(basis, np.array(diagonal.projectors))))


def random_simplex(k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the probability simplex."""
    return rng.dirichlet(np.ones(k))


def random_ensemble(dim: int, size: int, rng: np.random.Generator) -> OutcomeEnsemble:
    """Random mixture: simplex-distributed weights over random density matrices."""
    probs = random_simplex(size, rng)
    mats = density_from_normals(rng.standard_normal((size, 2 * dim * dim)), dim)
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

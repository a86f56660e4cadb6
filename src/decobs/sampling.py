"""Seeded random streams, draws and the transforms that build stacks from them.

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

This module imports no value type, so a campaign loads none.  The samplers
that wrap a draw in a value type live with the type: ``random_density`` and the other state
samplers in :mod:`decobs.states`, the measurement samplers in
:mod:`decobs.povm`.
"""

from __future__ import annotations

import numpy as np

from . import matcore


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


def density_from_normals(raw, n: int) -> np.ndarray:
    """Trace-normalized G G^dagger of the complex Gaussians G of (..., 2 n^2) normals, not validated."""
    g = complex_from_normals(raw, (n, n))
    mats = g @ g.conj().swapaxes(-1, -2)
    mats /= mats.trace(axis1=-2, axis2=-1).real[..., None, None]
    return mats


def pure_from_normals(raw, n: int) -> np.ndarray:
    """Complex Gaussian vectors of (..., 2 n) normals, each divided by its norm, not validated."""
    amp = complex_from_normals(raw, (n,))
    return amp / matcore.vector_norms(amp)[..., None]


def hermitian_from_normals(raw, n: int) -> np.ndarray:
    """Hermitian parts (G + G^dagger) / 2 of the complex Gaussians G of (..., 2 n^2) normals."""
    g = complex_from_normals(raw, (n, n))
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def unit_spectral_radius(h) -> np.ndarray:
    """A (..., n, n) Hermitian stack rescaled to unit spectral radius; zero matrices stay."""
    h = np.asarray(h, dtype=complex)
    radius = abs(np.linalg.eigvalsh(h)).max(axis=-1, initial=0.0)[..., None, None]
    return np.divide(h, radius, out=h.copy(), where=radius > 0)


def probing_from_normals(raw, n: int, m: int) -> np.ndarray:
    """n x m complex Gaussians of (..., 2 n m) normals with every row divided by its norm, not validated."""
    rows = complex_from_normals(raw, (n, m))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


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


def random_simplex(k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the probability simplex."""
    return rng.dirichlet(np.ones(k))

"""Validated value types for states and projector families, and their samplers.

Construction performs full invariant checking; instances hold read-only
arrays and can be shared freely between threads.  A failed check raises a
:class:`~decobs.errors.ValidationError` naming the invariant and the
measured residual.

Every check is a kernel of :mod:`decobs.stacks` called on one item, and every
sampler here (``random_density``, ``random_pure``, ...) is a draw and a
transform of :mod:`decobs.sampling` wrapped in a value type.  The campaigns
use the kernels and transforms directly.  A probing and a Gram matrix have
no value type: each is a plain array, checked by
:func:`~decobs.stacks.validate_probing_stack` or by the ``"gram"`` kind of
:func:`~decobs.stacks.validate_stack`, and a diagonal block partition is a
family of :func:`~decobs.stacks.block_projectors`.  The measurement code
(:mod:`decobs.povm`, ``counterexample`` and ``povm-classify``) builds on
these types, and a measurement's branches are stacks, as a probing's are:
probabilities and states from :func:`~decobs.povm.apply_povm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import matcore, sampling
from .errors import ValidationError
from .stacks import block_projectors, unit_vector_norms, validate_projector_stack, validate_stack


def _readonly(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix.

    ``spectrum`` holds its eigenvalues in non-increasing order, read-only:
    the PSD check solves them, in the one symmetrized solve of
    :func:`~decobs.stacks.validate_stack` that
    :func:`~decobs.matcore.hermitian_spectrum` also runs, so they are bit
    for bit what that returns for ``mat``.
    """

    mat: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = matcore.require_square(self.mat)
        spectrum = validate_stack(mat, "density")
        object.__setattr__(self, "mat", _readonly(mat))
        object.__setattr__(self, "spectrum", _readonly(spectrum, dtype=float))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex column vector."""

    amp: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amp, dtype=complex).ravel()
        unit_vector_norms(amp)
        object.__setattr__(self, "amp", _readonly(amp))

    @property
    def dim(self) -> int:
        return self.amp.size


@dataclass(frozen=True)
class ProjectorSet:
    """Complete family of mutually orthogonal Hermitian projectors."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = [matcore.require_square(p) for p in self.projectors]
        if not mats:
            raise ValidationError("projectors-nonempty")
        dim = mats[0].shape[0]
        for idx, p in enumerate(mats):
            if p.shape[0] != dim:
                raise ValidationError("projectors-same-dim", detail=f"projector {idx}")
        validate_projector_stack(np.array(mats))
        object.__setattr__(self, "projectors", tuple(_readonly(p) for p in mats))

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def __len__(self) -> int:
        return len(self.projectors)

    def __iter__(self):
        return iter(self.projectors)


def basis_state(dim: int, index: int) -> PureState:
    """The computational basis vector |index> in the given dimension."""
    amp = np.zeros(dim, dtype=complex)
    amp[index] = 1.0
    return PureState(amp)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def density_from_pure(state: PureState) -> DensityMatrix:
    """Rank-1 projector |v><v| of a pure state."""
    return DensityMatrix(np.outer(state.amp, state.amp.conj()))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return sampling.haar_from_ginibre(sampling.ginibre_from_normals(rng.standard_normal(2 * n * n), n))


def random_density(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Trace-normalized G G^dagger of a complex Gaussian G (full rank a.s.)."""
    return DensityMatrix(sampling.density_from_normals(rng.standard_normal(2 * n * n), n))


def random_pure(n: int, rng: np.random.Generator) -> PureState:
    return PureState(sampling.pure_from_normals(rng.standard_normal(2 * n), n))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix rescaled to unit spectral radius."""
    return sampling.unit_spectral_radius(sampling.hermitian_from_normals(rng.standard_normal(2 * n * n), n))


def random_projector_partition(
    n: int, block_sizes: Sequence[int], rng: np.random.Generator
) -> ProjectorSet:
    """Diagonal block partition of the stated sizes, conjugated by a Haar unitary."""
    sizes = [int(s) for s in block_sizes]
    if sum(sizes) != n or any(s < 1 for s in sizes):
        raise ValidationError("blocks-partition-dim", detail=f"{sizes} vs n={n}")
    basis = haar_unitary(n, rng)
    diagonal = block_projectors([sizes], len(sizes), n)[0]
    return ProjectorSet(tuple(sampling.conjugated_projectors(basis, diagonal)))

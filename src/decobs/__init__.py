"""Numerical verification of entropy inequalities for decoherence and observation.

Decoherence multiplies a density matrix entrywise by an environment-response
overlap matrix and never decreases any concave entropy; observation (the
Bayes-style conditioning on a perceived outcome) never increases it on
average.  This package implements the maps, the entropy functionals, the
spectral-dominance machinery that proves the inequalities, the generalized
ancilla-dilated measurements for which they fail, and a seeded CLI harness
that verifies everything numerically.
"""

from .entropy import (
    EntropyFunctional,
    builtin_functionals,
    custom,
    entropy,
    entropy_of_spectrum,
    expected_entropy,
    linear,
    log_det,
    parse_functional,
    renyi,
    to_bits,
    von_neumann,
)
from .errors import (
    DimensionMismatchError,
    InvalidPartitionError,
    NormViolationError,
    NotADistributionError,
    NotDiagonalBasisError,
    NotHermitianError,
    NotSquareError,
    ShapeMismatchError,
    ValidationError,
)
from .majorization import (
    CheckReport,
    check_fan,
    check_pinching_double,
    check_schur_majorization,
    majorizes,
    prefix_margins,
)
from .matcore import (
    hermitian_spectrum,
    is_hermitian,
    is_psd,
    is_unitary,
    partial_trace,
    schur_product,
    tensor_product,
)
from .povm import (
    Povm,
    ancilla_factors,
    apply_povm,
    counterexample_1,
    counterexample_2,
    is_purity_preserving,
    probing_as_povm,
    purify_ancilla,
)
from .processes import (
    decohere,
    ensemble_average,
    luders,
    observe,
    probing_joint_unitary,
    response_gram,
)
from .states import (
    DensityMatrix,
    GramMatrix,
    Outcome,
    OutcomeEnsemble,
    ProbingMatrix,
    ProjectorSet,
    PureState,
    basis_state,
    density_from_pure,
    diagonal_projector_partition,
    gram_from_projectors,
    gram_from_vectors,
    maximally_mixed,
    purity,
)

__version__ = "0.1.0"

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decobs import matcore, sampling
from decobs.errors import (
    NotDiagonalBasisError,
    ShapeMismatchError,
    ValidationError,
)
from decobs.states import (
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

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=8)


class TestDensityMatrix:
    def test_accepts_valid(self):
        DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError) as err:
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
        assert err.value.invariant == "density-hermitian"
        assert err.value.residual == pytest.approx(0.5)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError) as err:
            DensityMatrix(np.eye(2))
        assert err.value.invariant == "density-unit-trace"

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError) as err:
            DensityMatrix(np.diag([1.5, -0.5]))
        assert err.value.invariant == "density-psd"
        assert err.value.residual == pytest.approx(0.5)

    def test_matrix_is_readonly(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 3.0


class TestPureState:
    def test_accepts_unit_vector(self):
        PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0]))


class TestDensityFromPure:
    def test_basis_state(self):
        rho = density_from_pure(basis_state(2, 0))
        assert np.array_equal(rho.mat, [[1.0, 0.0], [0.0, 0.0]])

    def test_plus_state(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert matcore.max_abs(density_from_pure(plus).mat - 0.5) <= 1e-15

    @given(dim=dims, seed=seeds)
    def test_random_vector_gives_pure_state(self, dim, seed):
        v = sampling.random_pure(dim, sampling.stream(seed))
        rho = density_from_pure(v)
        assert matcore.max_abs(rho.mat - np.outer(v.amp, v.amp.conj())) == 0.0
        assert abs(np.trace(rho.mat) - 1.0) <= 1e-12
        assert abs(purity(rho) - 1.0) <= 1e-12


class TestPurity:
    def test_pure(self):
        assert purity(density_from_pure(basis_state(3, 1))) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert purity(maximally_mixed(2)) == pytest.approx(0.5)

    def test_diagonal(self):
        assert purity(DensityMatrix(np.diag([0.7, 0.3]))) == pytest.approx(0.58)

    @given(dim=dims, seed=seeds)
    def test_equals_spectrum_square_sum(self, dim, seed):
        rho = sampling.random_density(dim, sampling.stream(seed))
        lam = matcore.hermitian_spectrum(rho.mat)
        assert abs(purity(rho) - (lam**2).sum()) <= 1e-10


class TestGramFromVectors:
    def test_identical_vectors_give_all_ones(self):
        v = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        gram = gram_from_vectors([v, v, v])
        assert matcore.max_abs(gram.mat - 1.0) <= 1e-12

    def test_orthonormal_vectors_give_identity(self):
        gram = gram_from_vectors([basis_state(3, i) for i in range(3)])
        assert np.array_equal(gram.mat, np.eye(3))

    def test_overlap_pair(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        gram = gram_from_vectors([basis_state(2, 0), plus])
        expected = np.array([[1.0, 2**-0.5], [2**-0.5, 1.0]])
        assert matcore.max_abs(gram.mat - expected) <= 1e-12

    @given(count=st.integers(2, 5), dim=dims, seed=seeds)
    def test_always_validates(self, count, dim, seed):
        rng = sampling.stream(seed)
        vectors = [sampling.random_pure(dim, rng) for _ in range(count)]
        gram = gram_from_vectors(vectors)
        assert gram.dim == count

    def test_rejects_mixed_dims(self):
        with pytest.raises(ShapeMismatchError):
            gram_from_vectors([basis_state(2, 0), basis_state(3, 0)])


class TestGramFromProjectors:
    def test_block_pattern(self):
        ps = diagonal_projector_partition([2, 1])
        gram = gram_from_projectors(ps)
        expected = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=float)
        assert np.array_equal(gram.mat.real, expected)

    def test_trivial_projector_gives_all_ones(self):
        gram = gram_from_projectors(ProjectorSet((np.eye(3, dtype=complex),)))
        assert np.array_equal(gram.mat.real, np.ones((3, 3)))

    def test_full_pinching_gives_identity(self):
        gram = gram_from_projectors(diagonal_projector_partition([1, 1]))
        assert np.array_equal(gram.mat.real, np.eye(2))

    def test_rejects_rotated_projectors(self):
        ps = sampling.random_projector_partition(4, [2, 2], sampling.stream(3))
        with pytest.raises(NotDiagonalBasisError):
            gram_from_projectors(ps)


class TestProjectorSet:
    def test_accepts_bell_projectors(self):
        s = 2**-0.5
        bell = [
            np.array([s, 0, 0, s]),
            np.array([s, 0, 0, -s]),
            np.array([0, s, s, 0]),
            np.array([0, s, -s, 0]),
        ]
        ps = ProjectorSet(tuple(np.outer(v, v) for v in bell))
        assert ps.dim == 4

    def test_accepts_pointer_projectors(self):
        eye = np.eye(3, dtype=complex)
        pointers = tuple(
            matcore.tensor_product(eye, np.outer(basis_state(2, k).amp, basis_state(2, k).amp.conj()))
            for k in range(2)
        )
        ps = ProjectorSet(pointers)
        assert ps.dim == 6

    def test_rejects_incomplete(self):
        with pytest.raises(ValidationError) as err:
            ProjectorSet((np.diag([1.0, 0.0]).astype(complex),))
        assert err.value.invariant == "projectors-complete"

    def test_rejects_overlapping(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError) as err:
            ProjectorSet((p, p))
        assert err.value.invariant in ("projectors-orthogonal", "projectors-complete")

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError) as err:
            ProjectorSet((np.diag([0.5, 0.5]).astype(complex), np.diag([0.5, 0.5]).astype(complex)))
        assert err.value.invariant == "projector-idempotent"


class TestProbingMatrix:
    def test_accepts_unit_rows(self):
        ProbingMatrix(np.array([[1.0, 0.0], [2**-0.5, 2**-0.5]]))

    def test_rejects_bad_row(self):
        with pytest.raises(ValidationError) as err:
            ProbingMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert err.value.invariant == "probing-unit-rows"

    @given(n=dims, m=st.integers(1, 6), seed=seeds)
    def test_row_gram_validates(self, n, m, seed):
        probe = sampling.random_probing(n, m, sampling.stream(seed))
        GramMatrix(probe.mat @ probe.mat.conj().T)

    def test_rectangular_allowed(self):
        probe = sampling.random_probing(3, 5, sampling.stream(1))
        assert probe.n_object == 3 and probe.n_perception == 5


class TestOutcomeEnsemble:
    def test_accepts_valid(self):
        ens = OutcomeEnsemble(
            (
                Outcome(0.5, maximally_mixed(2)),
                Outcome(0.5, density_from_pure(basis_state(2, 0))),
            )
        )
        assert len(ens.live()) == 2

    def test_clamps_tiny_probabilities(self):
        ens = OutcomeEnsemble(
            (
                Outcome(1.0 - 5e-13, maximally_mixed(2)),
                Outcome(5e-13, None),
            )
        )
        assert ens.outcomes[1].probability == 0.0
        assert len(ens.live()) == 1

    def test_zero_probability_state_exempt(self):
        OutcomeEnsemble((Outcome(1.0, maximally_mixed(2)), Outcome(0.0, None)))

    def test_rejects_missing_live_state(self):
        with pytest.raises(ValidationError) as err:
            OutcomeEnsemble((Outcome(1.0, None),))
        assert err.value.invariant == "outcome-state-missing"

    def test_rejects_negative_probability(self):
        with pytest.raises(ValidationError):
            OutcomeEnsemble((Outcome(1.1, maximally_mixed(2)), Outcome(-0.1, maximally_mixed(2))))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError) as err:
            OutcomeEnsemble((Outcome(0.6, maximally_mixed(2)), Outcome(0.6, maximally_mixed(2))))
        assert err.value.invariant == "probabilities-sum-to-one"


class TestDensityMatrixSpectrum:
    @given(dim=st.integers(1, 8), seed=seeds)
    def test_is_the_hermitian_spectrum_bit_for_bit(self, dim, seed):
        rho = sampling.random_density(dim, sampling.stream(seed))
        assert np.array_equal(rho.spectrum, matcore.hermitian_spectrum(rho.mat))
        assert rho.spectrum.dtype == float

    def test_rank_deficient_state_keeps_its_zero(self):
        rho = density_from_pure(PureState(np.array([1.0, 1.0]) / np.sqrt(2.0)))
        assert np.array_equal(rho.spectrum, matcore.hermitian_spectrum(rho.mat))
        assert rho.spectrum[0] == pytest.approx(1.0)

    def test_is_readonly(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.spectrum[0] = 1.0

    def test_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            DensityMatrix(np.eye(2) / 2.0, spectrum=np.array([0.5, 0.5]))
        assert "spectrum" not in repr(maximally_mixed(2))

    def test_construction_solves_one_matrix(self, solved):
        DensityMatrix(np.diag([0.7, 0.3]))
        assert solved[0] == 1

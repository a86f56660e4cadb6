import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decobs import matcore, states
from decobs.entropy import entropy, linear
from decobs.errors import ValidationError
from decobs.povm import apply_povm, counterexample_1, counterexample_2
from decobs.states import DensityMatrix, ProjectorSet, PureState, basis_state, density_from_pure, maximally_mixed
from decobs.sampling import probing_from_normals, random_block_sizes
from decobs.majorization import block_projectors, gram_from_unit_rows, validate_projector_stack
from decobs.stacks import (
    clean_probabilities, response_gram_stack, unit_vector_norms, validate_probing_stack, validate_stack,
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
        v = states.random_pure(dim, np.random.default_rng(seed))
        rho = density_from_pure(v)
        assert matcore.max_abs(rho.mat - np.outer(v.amp, v.amp.conj())) == 0.0
        assert abs(np.trace(rho.mat) - 1.0) <= 1e-12
        assert entropy(rho, linear()) <= 1e-12


class TestPurity:
    """Purity tr(rho^2) is read as 1 minus the linear entropy."""

    def test_pure(self):
        assert entropy(density_from_pure(basis_state(3, 1)), linear()) == pytest.approx(0.0)

    def test_maximally_mixed(self):
        assert entropy(maximally_mixed(2), linear()) == pytest.approx(0.5)

    @given(dim=dims, seed=seeds)
    def test_equals_spectrum_square_sum(self, dim, seed):
        rho = states.random_density(dim, np.random.default_rng(seed))
        lam = validate_stack(rho.mat, "hermitian")
        purity = np.trace(rho.mat @ rho.mat).real
        assert abs(purity - (lam**2).sum()) <= 1e-10
        assert abs(entropy(rho, linear()) - (1.0 - purity)) <= 1e-10


class TestGramFromVectors:
    """The overlaps of unit vectors are ``gram_from_unit_rows`` of their amplitudes, as the campaigns form them."""

    def test_identical_vectors_give_all_ones(self):
        v = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        gram = gram_from_unit_rows([v.amp, v.amp, v.amp])
        validate_stack(gram, "gram")
        assert matcore.max_abs(gram - 1.0) <= 1e-12

    def test_orthonormal_vectors_give_identity(self):
        gram = gram_from_unit_rows([basis_state(3, i).amp for i in range(3)])
        assert np.array_equal(gram, np.eye(3))

    def test_overlap_pair(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        gram = gram_from_unit_rows([basis_state(2, 0).amp, plus.amp])
        validate_stack(gram, "gram")
        expected = np.array([[1.0, 2**-0.5], [2**-0.5, 1.0]])
        assert matcore.max_abs(gram - expected) <= 1e-12

    @given(count=st.integers(2, 5), dim=dims, seed=seeds)
    def test_always_validates(self, count, dim, seed):
        rng = np.random.default_rng(seed)
        vectors = [states.random_pure(dim, rng) for _ in range(count)]
        gram = gram_from_unit_rows([v.amp for v in vectors])
        validate_stack(gram, "gram")
        assert gram.shape == (count, count)


class TestGramFromProjectors:
    """A diagonal partition's block Gram matrix is ``response_gram_stack`` of its indicator probing.

    Row i of that probing holds (P_k)_ii over the slots k.
    """

    @staticmethod
    def block_gram(projectors) -> np.ndarray:
        """``response_gram_stack`` of the indicator probing of (..., k, d, d) projector families."""
        return response_gram_stack(np.asarray(projectors).diagonal(axis1=-2, axis2=-1).swapaxes(-1, -2))

    @staticmethod
    def block_mask(sizes) -> np.ndarray:
        """The pattern of the square diagonal blocks of the given sizes, from each index's block label."""
        labels = np.repeat(np.arange(len(sizes)), sizes)
        return labels[:, None] == labels[None, :]

    def test_block_pattern(self):
        gram = self.block_gram(block_projectors([[2, 1]], 2, 3)[0])
        validate_stack(gram, "gram")
        expected = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=float)
        assert np.array_equal(gram, expected)

    def test_trivial_projector_gives_all_ones(self):
        gram = self.block_gram(np.eye(3, dtype=complex)[None])
        assert np.array_equal(gram, np.ones((3, 3)))

    def test_full_pinching_gives_identity(self):
        gram = self.block_gram(block_projectors([[1, 1]], 2, 2)[0])
        assert np.array_equal(gram, np.eye(2))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_is_the_block_mask_of_every_composition(self, n):
        # the 2^(n-1) compositions of n: a cut or none after each of the first n - 1 indices
        compositions = []
        for cuts in itertools.product((False, True), repeat=n - 1):
            ends = [i + 1 for i, cut in enumerate(cuts) if cut] + [n]
            compositions.append(np.diff([0, *ends]).tolist())
        assert len({tuple(sizes) for sizes in compositions}) == 2 ** (n - 1)
        grams = self.block_gram(block_projectors(compositions, n, n))
        for sizes, gram in zip(compositions, grams):
            assert np.array_equal(gram, self.block_mask(sizes))
        validate_stack(grams, "gram")

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_is_the_block_mask_of_random_partitions(self, dim):
        rng = np.random.default_rng(dim + 70)
        partitions = [random_block_sizes(dim, rng) for _ in range(25)]
        grams = self.block_gram(block_projectors(partitions, dim, dim))
        for sizes, gram in zip(partitions, grams):
            assert np.array_equal(gram, self.block_mask(sizes))

    def test_rejects_rotated_projectors(self):
        # off a diagonal partition, sum_k (P_k)_ii^2 < sum_k (P_k)_ii = 1: the Gram check refuses it
        ps = states.random_projector_partition(4, [2, 2], np.random.default_rng(3))
        with pytest.raises(ValidationError) as err:
            validate_stack(self.block_gram(ps.projectors), "gram")
        assert err.value.invariant == "gram-unit-diagonal"


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

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValidationError) as err:
            ProjectorSet((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0, 0.0]).astype(complex)))
        assert err.value.invariant == "projectors-same-dim"
        assert "projector 1" in str(err.value)


class TestProbingMatrix:
    """A probing is a plain (n, m) array, checked by ``validate_probing_stack``."""

    def test_accepts_unit_rows(self):
        validate_probing_stack(np.array([[1.0, 0.0], [2**-0.5, 2**-0.5]]))

    def test_rejects_bad_row(self):
        with pytest.raises(ValidationError) as err:
            validate_probing_stack(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert err.value.invariant == "probing-unit-rows"

    @given(n=dims, m=st.integers(1, 6), seed=seeds)
    def test_row_gram_validates(self, n, m, seed):
        probe = probing_from_normals(np.random.default_rng(seed).standard_normal(2 * n * m), n, m)
        validate_probing_stack(probe)
        validate_stack(probe @ probe.conj().T, "gram")

    def test_rectangular_allowed(self):
        probe = probing_from_normals(np.random.default_rng(1).standard_normal(30), 3, 5)
        validate_probing_stack(probe)
        assert probe.shape == (3, 5)


class TestOutcomeEnsemble:
    """An ensemble of outcomes is a row of branch probabilities and a stack of
    branch states, as apply_povm and observe_stack return them: the row goes
    through clean_probabilities, and the live states through validate_stack."""

    def test_accepts_valid(self):
        probs = clean_probabilities([0.5, 0.5])
        validate_stack(np.array([maximally_mixed(2).mat, density_from_pure(basis_state(2, 0)).mat]), "density")
        assert np.count_nonzero(probs) == 2

    def test_clamps_tiny_probabilities(self):
        probs = clean_probabilities([1.0 - 5e-13, 5e-13])
        assert probs[1] == 0.0
        assert np.count_nonzero(probs) == 1

    def test_zero_probability_state_exempt(self):
        # a dead branch's state is all zeros, which is no density matrix
        probs = clean_probabilities([1.0, 0.0])
        branches = np.array([maximally_mixed(2).mat, np.zeros((2, 2))])
        validate_stack(branches[probs > 0], "density")

    def test_rejects_negative_probability(self):
        with pytest.raises(ValidationError):
            clean_probabilities([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError) as err:
            clean_probabilities([0.6, 0.6])
        assert err.value.invariant == "probabilities-sum-to-one"


class TestDensityMatrixSpectrum:
    @given(dim=st.integers(1, 8), seed=seeds)
    def test_is_the_hermitian_spectrum_bit_for_bit(self, dim, seed):
        rho = states.random_density(dim, np.random.default_rng(seed))
        assert np.array_equal(rho.spectrum, validate_stack(rho.mat, "hermitian"))
        assert rho.spectrum.dtype == float

    def test_rank_deficient_state_keeps_its_zero(self):
        rho = density_from_pure(PureState(np.array([1.0, 1.0]) / np.sqrt(2.0)))
        assert np.array_equal(rho.spectrum, validate_stack(rho.mat, "hermitian"))
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


#: Builders of each value type: two calls build two values with equal fields.
VALUES = {
    "density": lambda: maximally_mixed(2),
    "pure": lambda: basis_state(2, 0),
    "projectors": lambda: ProjectorSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))),
    "povm": lambda: counterexample_2()[0],
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_a_value_equals_only_itself_and_hashes(name):
    # field-wise == on arrays has no single truth value, so a value is compared by identity
    value, twin = VALUES[name](), VALUES[name]()
    assert value == value and value != twin
    assert value in [twin, value] and twin not in [value]
    assert len({value, twin, value}) == 2


class TestEmptyInputs:
    """Stacks of empty items get the answer or error of the scalar type on one item."""

    @staticmethod
    def invariant_of(build):
        with pytest.raises(ValidationError) as err:
            build()
        return err.value.invariant, str(err.value)

    def test_empty_pure_state_is_not_finite(self):
        scalar = self.invariant_of(lambda: PureState(np.zeros(0)))
        assert scalar[0] == "pure-finite"
        assert self.invariant_of(lambda: unit_vector_norms(np.zeros((3, 0)))) == scalar

    def test_family_of_empty_projectors_passes(self):
        family = ProjectorSet((np.zeros((0, 0)), np.zeros((0, 0))))
        assert family.dim == 0 and len(family) == 2
        validate_projector_stack(np.zeros((3, 2, 0, 0)))

    def test_stack_of_empty_density_matrices_has_no_unit_trace(self):
        scalar = self.invariant_of(lambda: DensityMatrix(np.zeros((0, 0))))
        assert scalar[0] == "density-unit-trace"
        assert self.invariant_of(lambda: validate_stack(np.zeros((3, 0, 0)), "density")) == scalar

    def test_stack_of_empty_gram_matrices_passes(self):
        assert validate_stack(np.zeros((0, 0)), "gram").shape == (0,)
        assert validate_stack(np.zeros((3, 0, 0)), "gram").shape == (3, 0)
        assert validate_stack(np.zeros((2, 3, 0, 0)), "gram").shape == (2, 3, 0)

    def test_families_without_projectors_are_empty_sets(self):
        scalar = self.invariant_of(lambda: ProjectorSet(()))
        assert scalar[0] == "projectors-nonempty"
        for shape in ((3, 0, 2, 2), (3, 0, 0, 0), (2, 2, 0, 3, 3)):
            assert self.invariant_of(lambda: validate_projector_stack(np.zeros(shape))) == scalar
        # no family at all has nothing to check
        validate_projector_stack(np.zeros((0, 0, 2, 2)))


NAN_3X2 = np.array([[np.nan, 0.0], [0.0, 1.0], [0.0, 0.0]])


class TestOneFiniteScan:
    """A value scans its entries once, through ``matcore.require_finite``, and fails in its old order.

    The order is rank, then finite entries, then squareness, then the
    value's own checks, matrix by matrix; then, for a family, a common dim.
    A measurement does not scan its checked values again: the maps it runs
    them through (``tensor_product``, ``partial_trace``) scan nothing, and only
    the check of its branches does.
    """

    @pytest.fixture
    def scans(self, monkeypatch):
        """The list of ``require_finite`` calls made since the fixture was set up."""
        gate = matcore.require_finite
        calls = []
        monkeypatch.setattr(matcore, "require_finite", lambda *args, **kwargs: calls.append(1) or gate(*args, **kwargs))
        return calls

    def test_each_value_scans_once(self, scans):
        DensityMatrix(np.eye(2) / 2)
        assert len(scans) == 1
        scans.clear()
        ProjectorSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert len(scans) == 1
        measurement, rho = counterexample_1()
        scans.clear()
        apply_povm(rho, measurement)
        assert len(scans) == 1

    @pytest.mark.parametrize(
        "mat, invariant",
        [
            (NAN_3X2, "finite-entries"),
            (np.zeros((3, 2)), "square"),
            (np.zeros((2, 2, 2)), "matrix-rank"),
            (np.array(1.0), "matrix-rank"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "finite-entries"),
            (np.array([[0.0, 1.0], [0.0, 1.0]]), "density-hermitian"),
        ],
        ids=["nan-not-square", "not-square", "3-d", "0-d", "nan", "not-hermitian"],
    )
    def test_a_density_matrix_fails_in_the_old_order(self, mat, invariant):
        with pytest.raises(ValidationError) as err:
            DensityMatrix(mat)
        assert err.value.invariant == invariant

    @pytest.mark.parametrize(
        "projectors, invariant",
        [
            ((NAN_3X2,), "finite-entries"),
            ((np.eye(2), NAN_3X2), "finite-entries"),
            ((np.zeros((3, 2)), np.full((3, 2), np.nan)), "square"),
            ((np.full((2, 2), np.nan), np.eye(3)), "finite-entries"),
            ((np.full((2, 2), np.nan), np.zeros((2, 2, 2))), "finite-entries"),
            ((np.eye(2), np.eye(3)), "projectors-same-dim"),
            ((np.eye(2), np.full((2, 2), np.nan)), "finite-entries"),
            ((np.eye(2), np.eye(2)), "projectors-orthogonal"),
        ],
        ids=[
            "nan-not-square", "second-nan-not-square", "not-square-before-nan", "nan-before-other-dim",
            "nan-before-3-d", "other-dim", "nan", "not-orthogonal",
        ],
    )
    def test_a_projector_family_fails_in_the_old_order(self, projectors, invariant):
        with pytest.raises(ValidationError) as err:
            ProjectorSet(projectors)
        assert err.value.invariant == invariant

    def test_the_maps_carry_non_finite_entries_through(self):
        nan = np.full((2, 2), np.nan)
        assert np.isnan(matcore.tensor_product(nan, np.eye(2))).all()
        assert np.isnan(matcore.partial_trace(np.kron(nan, np.eye(2)), 2, 2)).all()


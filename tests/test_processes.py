import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decobs import matcore, sampling
from decobs.errors import DimensionMismatchError, ShapeMismatchError
from decobs.processes import (
    decohere,
    ensemble_average,
    luders,
    observe,
    probing_joint_unitary,
    response_gram,
    spectra_unchanged,
)
from decobs.states import (
    DensityMatrix,
    GramMatrix,
    ProbingMatrix,
    ProjectorSet,
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


def plus() -> DensityMatrix:
    return DensityMatrix(np.full((2, 2), 0.5))


def is_trivial_probing(rho, probe, tol=1e-9) -> bool:
    """The campaigns' triviality test of an observation: every live branch keeps the spectrum of rho."""
    return all(spectra_unchanged(rho.spectrum, o.state.spectrum, tol) for o in observe(rho, probe).live())


def is_trivial_decoherence(rho, env, tol=1e-9) -> bool:
    """The campaigns' triviality test of a decoherence: rho o E keeps the spectrum of rho."""
    return bool(spectra_unchanged(rho.spectrum, decohere(rho, env).spectrum, tol))


class TestDecohere:
    def test_identity_overlap_reduces_to_diagonal(self):
        out = decohere(plus(), GramMatrix(np.eye(2)))
        assert np.array_equal(out.mat, np.eye(2) / 2.0)

    def test_all_ones_overlap_changes_nothing(self):
        rho = sampling.random_density(4, sampling.stream(5))
        out = decohere(rho, GramMatrix(np.ones((4, 4))))
        assert matcore.max_abs(out.mat - rho.mat) == 0.0

    def test_partial_suppression(self):
        env = GramMatrix(np.array([[1.0, 0.6], [0.6, 1.0]]))
        out = decohere(plus(), env)
        assert matcore.max_abs(out.mat - np.array([[0.5, 0.3], [0.3, 0.5]])) <= 1e-15

    @given(dim=dims, seed=seeds)
    def test_trace_preserved(self, dim, seed):
        rng = sampling.stream(seed)
        rho = sampling.random_density(dim, rng)
        env = sampling.random_gram(dim, dim, rng)
        assert abs(np.trace(decohere(rho, env).mat) - 1.0) <= 1e-12

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            decohere(plus(), GramMatrix(np.eye(3)))


class TestObserve:
    def test_identity_probing_produces_basis_states(self):
        ens = observe(plus(), ProbingMatrix(np.eye(2)))
        assert [o.probability for o in ens] == pytest.approx([0.5, 0.5])
        assert np.allclose(ens.outcomes[0].state.mat, [[1, 0], [0, 0]])
        assert np.allclose(ens.outcomes[1].state.mat, [[0, 0], [0, 1]])

    def test_deterministic_input_is_unchanged(self):
        rho = density_from_pure(basis_state(2, 0))
        probe = sampling.random_probing(2, 3, sampling.stream(11))
        for outcome in observe(rho, probe).live():
            assert matcore.max_abs(outcome.state.mat - rho.mat) <= 1e-12

    def test_componentwise_update(self):
        # evaluated from p_k = sum_i rho_ii |S_ik|^2, rho_ij S_ik S_jk^*/p_k
        probe = ProbingMatrix(np.array([[1.0, 0.0], [2**-0.5, 2**-0.5]]))
        ens = observe(plus(), probe)
        assert [o.probability for o in ens] == pytest.approx([0.75, 0.25])
        r2over3 = np.sqrt(2.0) / 3.0
        expected_first = np.array([[2.0 / 3.0, r2over3], [r2over3, 1.0 / 3.0]])
        assert matcore.max_abs(ens.outcomes[0].state.mat - expected_first) <= 1e-12
        assert matcore.max_abs(ens.outcomes[1].state.mat - np.array([[0.0, 0.0], [0.0, 1.0]])) <= 1e-12

    def test_dead_branch_is_clamped(self):
        probe = ProbingMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        ens = observe(maximally_mixed(2), probe)
        assert ens.outcomes[1].probability == 0.0
        assert ens.outcomes[1].state is None

    @given(dim=dims, m=st.integers(1, 8), seed=seeds)
    def test_probabilities_sum_to_one(self, dim, m, seed):
        rng = sampling.stream(seed)
        ens = observe(sampling.random_density(dim, rng), sampling.random_probing(dim, m, rng))
        assert abs(sum(o.probability for o in ens) - 1.0) <= 1e-10

    @given(dim=dims, m=st.integers(1, 8), seed=seeds)
    def test_purity_preserved_on_pure_inputs(self, dim, m, seed):
        rng = sampling.stream(seed)
        rho = density_from_pure(sampling.random_pure(dim, rng))
        for outcome in observe(rho, sampling.random_probing(dim, m, rng)).live():
            assert abs(purity(outcome.state) - 1.0) <= 1e-9

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            observe(maximally_mixed(3), ProbingMatrix(np.eye(2)))


class TestResponseGram:
    def test_identity(self):
        assert np.array_equal(response_gram(ProbingMatrix(np.eye(2))).mat, np.eye(2))

    def test_identical_rows_give_all_ones(self):
        row = np.array([2**-0.5, 2**-0.5])
        gram = response_gram(ProbingMatrix(np.array([row, row])))
        assert matcore.max_abs(gram.mat - 1.0) <= 1e-12

    def test_row_overlaps(self):
        probe = ProbingMatrix(np.array([[1.0, 0.0], [2**-0.5, 2**-0.5]]))
        expected = np.array([[1.0, 2**-0.5], [2**-0.5, 1.0]])
        assert matcore.max_abs(response_gram(probe).mat - expected) <= 1e-12


class TestEnsembleAverage:
    def test_single_outcome(self):
        rho = sampling.random_density(3, sampling.stream(2))
        ens = observe(rho, ProbingMatrix(np.ones((3, 1))))
        assert matcore.max_abs(ensemble_average(ens).mat - rho.mat) <= 1e-14

    @given(dim=dims, m=st.integers(1, 8), seed=seeds)
    def test_average_equals_decoherence_with_row_gram(self, dim, m, seed):
        rng = sampling.stream(seed)
        rho = sampling.random_density(dim, rng)
        probe = sampling.random_probing(dim, m, rng)
        averaged = ensemble_average(observe(rho, probe))
        decohered = decohere(rho, response_gram(probe))
        assert matcore.max_abs(averaged.mat - decohered.mat) <= 1e-12


class TestLuders:
    def test_trivial_projector(self):
        rho = sampling.random_density(3, sampling.stream(9))
        out = luders(rho, ProjectorSet((np.eye(3, dtype=complex),)))
        assert matcore.max_abs(out.mat - rho.mat) <= 1e-14

    def test_full_pinching_of_plus(self):
        out = luders(plus(), diagonal_projector_partition([1, 1]))
        assert np.allclose(out.mat, np.eye(2) / 2.0)

    def test_block_masking(self):
        rho = sampling.random_density(3, sampling.stream(4))
        out = luders(rho, diagonal_projector_partition([2, 1]))
        expected = rho.mat.copy()
        expected[0, 2] = expected[1, 2] = 0.0
        expected[2, 0] = expected[2, 1] = 0.0
        assert matcore.max_abs(out.mat - expected) <= 1e-14

    @given(dim=dims, seed=seeds)
    def test_equals_schur_form_for_diagonal_partitions(self, dim, seed):
        rng = sampling.stream(seed)
        rho = sampling.random_density(dim, rng)
        partition = diagonal_projector_partition(sampling.random_block_sizes(dim, rng))
        pinched = luders(rho, partition)
        schur_form = decohere(rho, gram_from_projectors(partition))
        assert matcore.max_abs(pinched.mat - schur_form.mat) <= 1e-12

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            luders(plus(), diagonal_projector_partition([2, 1]))


class TestVonNeumannReduce:
    """Decoherence with the identity overlap is the von Neumann reduction: it keeps the diagonal only."""

    def test_diagonal_unchanged(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        assert np.array_equal(decohere(rho, GramMatrix(np.eye(2))).mat, rho.mat)

    def test_plus_becomes_mixed(self):
        assert np.array_equal(decohere(plus(), GramMatrix(np.eye(2))).mat, np.eye(2) / 2.0)

    @given(dim=dims, seed=seeds)
    def test_keeps_diagonal_only(self, dim, seed):
        rho = sampling.random_density(dim, sampling.stream(seed))
        out = decohere(rho, GramMatrix(np.eye(dim)))
        assert np.array_equal(out.mat.diagonal(), rho.mat.diagonal())
        assert matcore.max_abs(out.mat - np.diag(out.mat.diagonal())) == 0.0


class TestTriviality:
    @given(dim=dims, seed=seeds)
    def test_pure_phase_probing_is_trivial(self, dim, seed):
        rng = sampling.stream(seed)
        rho = sampling.random_density(dim, rng)
        theta = rng.uniform(0, 2 * np.pi, size=dim)
        phi = rng.uniform(0, 2 * np.pi, size=dim)
        mat = np.exp(1j * (theta[:, None] + phi[None, :])) / np.sqrt(dim)
        assert is_trivial_probing(rho, ProbingMatrix(mat))

    def test_identity_probing_on_mixed_diagonal_is_nontrivial(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        assert not is_trivial_probing(rho, ProbingMatrix(np.eye(2)))

    def test_identity_probing_on_pure_is_trivial(self):
        assert is_trivial_probing(plus(), ProbingMatrix(np.eye(2)))

    @given(dim=dims, seed=seeds)
    def test_diagonal_state_never_decoheres(self, dim, seed):
        rng = sampling.stream(seed)
        probs = sampling.random_simplex(dim, rng)
        rho = DensityMatrix(np.diag(probs))
        env = sampling.random_gram(dim, dim, rng)
        assert is_trivial_decoherence(rho, env)

    def test_all_ones_overlap_is_trivial(self):
        assert is_trivial_decoherence(plus(), GramMatrix(np.ones((2, 2))))

    def test_identity_overlap_on_plus_is_nontrivial(self):
        assert not is_trivial_decoherence(plus(), GramMatrix(np.eye(2)))


class TestProbingJointUnitary:
    def test_reference_responses_give_identity(self):
        responses = [basis_state(2, 0), basis_state(2, 0)]
        assert matcore.max_abs(probing_joint_unitary(responses) - np.eye(4)) <= 1e-12

    def test_orthonormal_responses_give_controlled_flip(self):
        responses = [basis_state(2, 0), basis_state(2, 1)]
        joint = probing_joint_unitary(responses)
        expected = np.eye(4, dtype=complex)
        expected[2:, 2:] = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert matcore.max_abs(joint - expected) <= 1e-12

    @given(n=st.integers(2, 4), d=st.integers(2, 4), seed=seeds)
    def test_maps_reference_to_responses(self, n, d, seed):
        rng = sampling.stream(seed)
        responses = [sampling.random_pure(d, rng) for _ in range(n)]
        joint = probing_joint_unitary(responses)
        assert matcore.is_unitary(joint, 1e-10)
        for i, response in enumerate(responses):
            vec = np.zeros(n * d, dtype=complex)
            vec[i * d] = 1.0  # |o_i> (x) |first basis vector>
            expected = np.zeros(n * d, dtype=complex)
            expected[i * d : (i + 1) * d] = response.amp
            assert matcore.max_abs(joint @ vec - expected) <= 1e-12

    @settings(max_examples=50)
    @given(n=st.integers(2, 4), d=st.integers(2, 4), seed=seeds)
    def test_partial_trace_realizes_decoherence(self, n, d, seed):
        rng = sampling.stream(seed)
        responses = [sampling.random_pure(d, rng) for _ in range(n)]
        rho = sampling.random_density(n, rng)
        joint = probing_joint_unitary(responses)
        reference = np.zeros((d, d), dtype=complex)
        reference[0, 0] = 1.0
        evolved = joint @ matcore.tensor_product(rho.mat, reference) @ joint.conj().T
        reduced = matcore.partial_trace(evolved, n, d, keep="first")
        expected = decohere(rho, gram_from_vectors(responses))
        assert matcore.max_abs(reduced - expected.mat) <= 1e-12

    @settings(max_examples=25)
    @given(n=st.integers(2, 3), d=st.integers(2, 3), seed=seeds)
    def test_pinched_joint_state_carries_observation_branches(self, n, d, seed):
        # the evolved joint state, pinched by the pointer projectors, is the
        # direct sum of p_k rho_k blocks produced by observation
        rng = sampling.stream(seed)
        responses = [sampling.random_pure(d, rng) for _ in range(n)]
        rho = sampling.random_density(n, rng)
        probe = ProbingMatrix(np.array([r.amp for r in responses]))
        ens = observe(rho, probe)
        joint = probing_joint_unitary(responses)
        reference = np.zeros((d, d), dtype=complex)
        reference[0, 0] = 1.0
        evolved = joint @ matcore.tensor_product(rho.mat, reference) @ joint.conj().T
        eye = np.eye(n, dtype=complex)
        for k, outcome in enumerate(ens):
            pointer = np.zeros((d, d), dtype=complex)
            pointer[k, k] = 1.0
            projector = matcore.tensor_product(eye, pointer)
            block = matcore.partial_trace(projector @ evolved @ projector, n, d, keep="first")
            p = float(np.trace(block).real)
            assert abs(p - outcome.probability) <= 1e-12
            if outcome.probability > 0:
                assert matcore.max_abs(block / p - outcome.state.mat) <= 1e-11

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            probing_joint_unitary([basis_state(2, 0), basis_state(3, 0)])


class TestSpectraUnchanged:
    def test_compares_the_largest_componentwise_change(self):
        before = np.array([[0.5, 0.5], [0.9, 0.1], [1.0, 0.0]])
        after = np.array([[0.5, 0.5], [0.9 - 2e-9, 0.1 + 2e-9], [1.0 - 5e-10, 5e-10]])
        assert spectra_unchanged(before, after, 1e-9).tolist() == [True, False, True]

    def test_broadcasts_one_spectrum_against_a_stack(self):
        branches = np.array([[[0.5, 0.5], [0.6, 0.4]], [[0.5, 0.5], [0.5, 0.5]]])
        assert spectra_unchanged(np.array([0.5, 0.5]), branches).all(axis=-1).tolist() == [False, True]

    def test_empty_spectra_are_unchanged(self):
        assert spectra_unchanged(np.zeros((3, 0)), np.zeros((3, 0))).tolist() == [True] * 3

    @given(dim=dims, seed=seeds)
    def test_is_trivial_functions_read_the_state_spectra(self, dim, seed):
        rng = sampling.stream(seed)
        rho = sampling.random_density(dim, rng)
        env = sampling.random_gram(dim, dim, rng)
        probe = sampling.random_probing(dim, dim, rng)
        after = matcore.hermitian_spectrum(decohere(rho, env).mat)
        reference = matcore.hermitian_spectrum(rho.mat)
        assert is_trivial_decoherence(rho, env) == bool(matcore.max_abs(after - reference) <= 1e-9)
        branches = [matcore.hermitian_spectrum(o.state.mat) for o in observe(rho, probe).live()]
        expected = all(matcore.max_abs(lam - reference) <= 1e-9 for lam in branches)
        assert is_trivial_probing(rho, probe) == expected

    def test_decoherence_solves_only_the_decohered_state(self, solved):
        rho, env = plus(), GramMatrix(np.eye(2))
        solved[0] = 0
        assert not is_trivial_decoherence(rho, env)
        assert solved[0] == 1

    def test_probing_solves_only_the_live_branches(self, solved):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        solved[0] = 0
        assert is_trivial_probing(rho, ProbingMatrix(np.ones((2, 3)) / np.sqrt(3.0)))
        assert solved[0] == 3

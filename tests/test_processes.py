import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decobs import campaigns, matcore, sampling, states
from decobs.cli import CampaignConfig
from decobs.entropy import entropies_of_spectra, linear
from decobs.errors import ValidationError
from decobs.stacks import (
    average_stack,
    block_projectors,
    gram_from_unit_rows,
    observe_stack,
    pinch,
    response_gram_stack,
    spectra_unchanged,
    validate_probing_stack,
    validate_stack,
)
from decobs.states import DensityMatrix, basis_state, density_from_pure, maximally_mixed
from decobs.tolerances import ZERO_PROBABILITY

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=8)


def plus() -> DensityMatrix:
    return DensityMatrix(np.full((2, 2), 0.5))


def checked_gram(mat) -> np.ndarray:
    """``mat`` as a complex array, once it passes the Gram checks of ``validate_stack``."""
    mat = np.asarray(mat, dtype=complex)
    validate_stack(mat, "gram")
    return mat


def is_trivial_probing(rho, probe) -> bool:
    """The campaigns' triviality test of an observation: every live branch keeps the spectrum of rho."""
    validate_probing_stack(probe)
    probs, branches = observe_stack(rho.mat, probe)
    return bool(spectra_unchanged(rho.spectrum, validate_stack(branches[probs > 0.0], "density")).all())


def is_trivial_decoherence(rho, env) -> bool:
    """The campaigns' triviality test of a decoherence: rho o E keeps the spectrum of rho."""
    return bool(spectra_unchanged(rho.spectrum, validate_stack(rho.mat * env, "density")))


class TestDecohere:
    """Decoherence is the Schur product rho o E, formed as ``rho * env``."""

    def test_identity_overlap_reduces_to_diagonal(self):
        out = plus().mat * checked_gram(np.eye(2))
        assert np.array_equal(out, np.eye(2) / 2.0)

    def test_all_ones_overlap_changes_nothing(self):
        rho = states.random_density(4, np.random.default_rng(5))
        out = rho.mat * checked_gram(np.ones((4, 4)))
        assert matcore.max_abs(out - rho.mat) == 0.0

    def test_partial_suppression(self):
        env = checked_gram(np.array([[1.0, 0.6], [0.6, 1.0]]))
        out = plus().mat * env
        assert matcore.max_abs(out - np.array([[0.5, 0.3], [0.3, 0.5]])) <= 1e-15

    @given(dim=dims, seed=seeds)
    def test_trace_preserved(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = states.random_density(dim, rng)
        env = gram_from_unit_rows(sampling.pure_from_normals(rng.standard_normal((dim, 2 * dim)), dim))
        assert abs(np.trace(rho.mat * env) - 1.0) <= 1e-12


class TestObserve:
    """Observation is ``observe_stack`` on one state and one probing."""

    def test_identity_probing_produces_basis_states(self):
        probs, branches = observe_stack(plus().mat, np.eye(2))
        assert probs.tolist() == pytest.approx([0.5, 0.5])
        assert np.allclose(branches[0], [[1, 0], [0, 0]])
        assert np.allclose(branches[1], [[0, 0], [0, 1]])

    def test_deterministic_input_is_unchanged(self):
        rho = density_from_pure(basis_state(2, 0))
        probe = sampling.probing_from_normals(np.random.default_rng(11).standard_normal(12), 2, 3)
        probs, branches = observe_stack(rho.mat, probe)
        for state in branches[probs > 0.0]:
            assert matcore.max_abs(state - rho.mat) <= 1e-12

    def test_componentwise_update(self):
        # evaluated from p_k = sum_i rho_ii |S_ik|^2, rho_ij S_ik S_jk^*/p_k
        probe = np.array([[1.0, 0.0], [2**-0.5, 2**-0.5]])
        validate_probing_stack(probe)
        probs, branches = observe_stack(plus().mat, probe)
        assert probs.tolist() == pytest.approx([0.75, 0.25])
        r2over3 = np.sqrt(2.0) / 3.0
        expected_first = np.array([[2.0 / 3.0, r2over3], [r2over3, 1.0 / 3.0]])
        assert matcore.max_abs(branches[0] - expected_first) <= 1e-12
        assert matcore.max_abs(branches[1] - np.array([[0.0, 0.0], [0.0, 1.0]])) <= 1e-12

    def test_dead_branch_is_clamped(self):
        probe = np.array([[1.0, 0.0], [1.0, 0.0]])
        validate_probing_stack(probe)
        probs, branches = observe_stack(maximally_mixed(2).mat, probe)
        assert probs[1] == 0.0
        # a dead branch's state is undefined (0/0), and the kernel gives it all zeros
        assert not branches[1].any()

    @given(dim=dims, m=st.integers(1, 8), seed=seeds)
    def test_probabilities_sum_to_one(self, dim, m, seed):
        rng = np.random.default_rng(seed)
        rho = states.random_density(dim, rng)
        probs, _ = observe_stack(rho.mat, sampling.probing_from_normals(rng.standard_normal(2 * dim * m), dim, m))
        assert abs(sum(probs.tolist()) - 1.0) <= 1e-10

    @given(dim=dims, m=st.integers(1, 8), seed=seeds)
    def test_purity_preserved_on_pure_inputs(self, dim, m, seed):
        rng = np.random.default_rng(seed)
        rho = density_from_pure(states.random_pure(dim, rng))
        probe = sampling.probing_from_normals(rng.standard_normal(2 * dim * m), dim, m)
        probs, branches = observe_stack(rho.mat, probe)
        assert (entropies_of_spectra(validate_stack(branches[probs > 0.0], "density"), [linear()]) <= 1e-9).all()

    def test_orthonormal_responses_give_complete_readout(self):
        probs, branches = observe_stack(plus().mat, np.eye(2))
        assert np.allclose(probs, [0.5, 0.5])
        assert (entropies_of_spectra(validate_stack(branches, "density"), (linear(),))[0] <= 1e-9).all()

    def test_identical_responses_leave_state_unchanged(self):
        rng = np.random.default_rng(21)
        response = states.random_pure(3, rng)
        rho = states.random_density(2, rng)
        probs, branches = observe_stack(rho.mat, np.array([response.amp, response.amp]))
        for state in branches[probs > 0]:
            assert matcore.max_abs(state - rho.mat) <= 1e-11

    @given(n=st.integers(2, 4), d=st.integers(2, 4), seed=seeds)
    def test_always_purity_preserving(self, n, d, seed):
        # a pure input |psi> has pure branches D_k|psi> / ||D_k psi||, D_k = diag(S[:, k])
        rng = np.random.default_rng(seed)
        probe = np.array([states.random_pure(d, rng).amp for _ in range(n)])
        psi = states.random_pure(n, rng).amp
        probs, branches = observe_stack(np.outer(psi, psi.conj()), probe)
        for k in np.flatnonzero(probs > 0.0):
            amp = probe[:, k] * psi
            assert matcore.max_abs(branches[k] - np.outer(amp, amp.conj()) / np.vdot(amp, amp).real) <= 1e-12


class TestResponseGram:
    def test_identity(self):
        assert np.array_equal(response_gram_stack(np.eye(2)), np.eye(2))

    def test_identical_rows_give_all_ones(self):
        row = np.array([2**-0.5, 2**-0.5])
        gram = response_gram_stack(np.array([row, row]))
        assert matcore.max_abs(checked_gram(gram) - 1.0) <= 1e-12

    def test_row_overlaps(self):
        probe = np.array([[1.0, 0.0], [2**-0.5, 2**-0.5]])
        expected = np.array([[1.0, 2**-0.5], [2**-0.5, 1.0]])
        assert matcore.max_abs(checked_gram(response_gram_stack(probe)) - expected) <= 1e-12


class TestEnsembleAverage:
    """The branch average of an observation, ``average_stack`` of what ``observe_stack`` gives."""

    def test_single_outcome(self):
        rho = states.random_density(3, np.random.default_rng(2))
        averaged = average_stack(*observe_stack(rho.mat, np.ones((3, 1))))
        assert matcore.max_abs(averaged - rho.mat) <= 1e-14

    @given(dim=dims, m=st.integers(1, 8), seed=seeds)
    def test_average_equals_decoherence_with_row_gram(self, dim, m, seed):
        rng = np.random.default_rng(seed)
        rho = states.random_density(dim, rng)
        probe = sampling.probing_from_normals(rng.standard_normal(2 * dim * m), dim, m)
        averaged = average_stack(*observe_stack(rho.mat, probe))
        decohered = rho.mat * response_gram_stack(probe)
        assert matcore.max_abs(averaged - decohered) <= 1e-12


class TestLuders:
    """A Lüders measurement by a diagonal partition is the probing whose responses are block indicators.

    The pinching is ``pinch`` on one item, and its block Schur form is
    decoherence by the indicator probing, whose Gram matrix ``luders-equiv``
    takes from ``response_gram_stack``.
    """

    def test_trivial_projector(self):
        rho = states.random_density(3, np.random.default_rng(9))
        _, out = pinch(np.eye(3)[None], rho.mat)
        assert matcore.max_abs(DensityMatrix(out).mat - rho.mat) <= 1e-14

    def test_full_pinching_of_plus(self):
        _, out = pinch(block_projectors([[1, 1]], 2, 2)[0], plus().mat)
        assert np.allclose(DensityMatrix(out).mat, np.eye(2) / 2.0)

    def test_block_masking(self):
        rho = states.random_density(3, np.random.default_rng(4))
        _, out = pinch(block_projectors([[2, 1]], 2, 3)[0], rho.mat)
        expected = rho.mat.copy()
        expected[0, 2] = expected[1, 2] = 0.0
        expected[2, 0] = expected[2, 1] = 0.0
        assert matcore.max_abs(DensityMatrix(out).mat - expected) <= 1e-14

    @given(dim=dims, seed=seeds)
    def test_equals_schur_form_for_diagonal_partitions(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = states.random_density(dim, rng)
        sizes = sampling.random_block_sizes(dim, rng)
        projectors = block_projectors([sizes], len(sizes), dim)[0]
        _, pinched = pinch(projectors, rho.mat)
        # the indicator probing: row i holds (P_k)_ii over the blocks k
        probe = projectors.diagonal(axis1=-2, axis2=-1).T
        schur_form = rho.mat * checked_gram(response_gram_stack(probe))
        assert matcore.max_abs(DensityMatrix(pinched).mat - schur_form) <= 1e-12

    def test_rejects_shape_mismatch(self):
        # a partition of another dim than the state's is refused before any map runs
        cfg = CampaignConfig("luders-equiv", dim=2)
        with pytest.raises(ValidationError) as err:
            campaigns.evaluate_luders(cfg, range(1), (plus().mat[None], [(2, 1)]))
        assert err.value.invariant == "stacks-same-dim"


class TestVonNeumannReduce:
    """Decoherence with the identity overlap is the von Neumann reduction: it keeps the diagonal only."""

    def test_diagonal_unchanged(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        assert np.array_equal(rho.mat * checked_gram(np.eye(2)), rho.mat)

    def test_plus_becomes_mixed(self):
        assert np.array_equal(plus().mat * checked_gram(np.eye(2)), np.eye(2) / 2.0)

    @given(dim=dims, seed=seeds)
    def test_keeps_diagonal_only(self, dim, seed):
        rho = states.random_density(dim, np.random.default_rng(seed))
        out = DensityMatrix(rho.mat * checked_gram(np.eye(dim)))
        assert np.array_equal(out.mat.diagonal(), rho.mat.diagonal())
        assert matcore.max_abs(out.mat - np.diag(out.mat.diagonal())) == 0.0


class TestTriviality:
    @given(dim=dims, seed=seeds)
    def test_pure_phase_probing_is_trivial(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = states.random_density(dim, rng)
        theta = rng.uniform(0, 2 * np.pi, size=dim)
        phi = rng.uniform(0, 2 * np.pi, size=dim)
        mat = np.exp(1j * (theta[:, None] + phi[None, :])) / np.sqrt(dim)
        assert is_trivial_probing(rho, mat)

    def test_identity_probing_on_mixed_diagonal_is_nontrivial(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        assert not is_trivial_probing(rho, np.eye(2))

    def test_identity_probing_on_pure_is_trivial(self):
        assert is_trivial_probing(plus(), np.eye(2))

    @given(dim=dims, seed=seeds)
    def test_diagonal_state_never_decoheres(self, dim, seed):
        rng = np.random.default_rng(seed)
        probs = sampling.random_simplex(dim, rng)
        rho = DensityMatrix(np.diag(probs))
        env = checked_gram(gram_from_unit_rows(sampling.pure_from_normals(rng.standard_normal((dim, 2 * dim)), dim)))
        assert is_trivial_decoherence(rho, env)

    def test_all_ones_overlap_is_trivial(self):
        assert is_trivial_decoherence(plus(), checked_gram(np.ones((2, 2))))

    def test_identity_overlap_on_plus_is_nontrivial(self):
        assert not is_trivial_decoherence(plus(), checked_gram(np.eye(2)))


def stinespring(probe) -> np.ndarray:
    """V = sum_k D_k (x) |k>, D_k = diag(S[:, k]): the probing |i>|e_0> -> |i>|e_i> as an isometry.

    It maps the object into object (x) pointer, object factor first, so
    V[i * m + k, i] = S[i, k].
    """
    n, m = probe.shape
    pointer = np.eye(m)
    return sum(np.kron(np.diag(probe[:, k]), pointer[:, k : k + 1]) for k in range(m))


def pointer_blocks(rho, probe) -> np.ndarray:
    """Tr_env[(1 (x) |k><k|) V rho V^dagger (1 (x) |k><k|)] for every pointer reading k, shape (m, n, n)."""
    n, m = probe.shape
    v = stinespring(probe)
    evolved = v @ rho @ v.conj().T
    eye, pointer = np.eye(n), np.eye(m)
    projectors = [matcore.tensor_product(eye, np.outer(pointer[k], pointer[k])) for k in range(m)]
    return np.array([matcore.partial_trace(p @ evolved @ p, n, m, keep="first") for p in projectors])


def pointer_readout(rho, probe) -> tuple[np.ndarray, np.ndarray]:
    """The readout's probabilities and normalized branches, with p_k = 0 and an all-zero state when dead."""
    blocks = pointer_blocks(rho, probe)
    probs = blocks.trace(axis1=-2, axis2=-1).real
    live = probs > ZERO_PROBABILITY
    branches = np.zeros_like(blocks)
    branches[live] = blocks[live] / probs[live, None, None]
    return np.where(live, probs, 0.0), branches


class TestStinespringIsometry:
    """The probing's joint map, written out: V^dagger V = I, its partial trace
    decoheres, and its pointer readout is ``observe_stack``."""

    @given(n=st.integers(2, 4), d=st.integers(2, 4), seed=seeds)
    def test_maps_reference_to_responses(self, n, d, seed):
        rng = np.random.default_rng(seed)
        responses = [states.random_pure(d, rng) for _ in range(n)]
        v = stinespring(np.array([r.amp for r in responses]))
        assert matcore.max_abs(v.conj().T @ v - np.eye(n)) <= 1e-12
        for i, response in enumerate(responses):
            expected = np.zeros(n * d, dtype=complex)
            expected[i * d : (i + 1) * d] = response.amp  # |o_i> (x) |response_i>
            assert matcore.max_abs(v[:, i] - expected) <= 1e-12

    @settings(max_examples=50)
    @given(n=st.integers(2, 4), d=st.integers(2, 4), seed=seeds)
    def test_partial_trace_realizes_decoherence(self, n, d, seed):
        rng = np.random.default_rng(seed)
        probe = np.array([states.random_pure(d, rng).amp for _ in range(n)])
        rho = states.random_density(n, rng)
        v = stinespring(probe)
        reduced = matcore.partial_trace(v @ rho.mat @ v.conj().T, n, d, keep="first")
        assert matcore.max_abs(reduced - rho.mat * gram_from_unit_rows(probe)) <= 1e-12

    @settings(max_examples=25)
    @given(n=st.integers(2, 3), d=st.integers(2, 3), seed=seeds)
    def test_pinched_joint_state_carries_observation_branches(self, n, d, seed):
        # the evolved joint state, pinched by the pointer projectors, is the
        # direct sum of p_k rho_k blocks produced by observation
        rng = np.random.default_rng(seed)
        probe = np.array([states.random_pure(d, rng).amp for _ in range(n)])
        rho = states.random_density(n, rng)
        probs, branches = observe_stack(rho.mat, probe)
        for probability, state, block in zip(probs, branches, pointer_blocks(rho.mat, probe)):
            p = float(np.trace(block).real)
            assert abs(p - probability) <= 1e-12
            if probability > 0:
                assert matcore.max_abs(block / p - state) <= 1e-11

    @settings(max_examples=40)
    @given(n=st.integers(2, 4), d=st.integers(2, 4), seed=seeds)
    def test_matches_observe(self, n, d, seed):
        rng = np.random.default_rng(seed)
        probe = np.array([states.random_pure(d, rng).amp for _ in range(n)])
        rho = states.random_density(n, rng)
        probs, branches = pointer_readout(rho.mat, probe)
        observed_probs, observed = observe_stack(rho.mat, probe)
        # the whole stacks, dead branches included
        assert probs.shape == observed_probs.shape and branches.shape == observed.shape
        assert matcore.max_abs(probs - observed_probs) <= 1e-12
        assert matcore.max_abs(branches - observed) <= 1e-12

    def test_dead_branches_match_observe(self):
        # |0><0| read through two basis responses in 3 outcomes: outcomes 1 and 2 are dead
        probe = np.array([basis_state(3, 0).amp, basis_state(3, 1).amp])
        rho = density_from_pure(basis_state(2, 0))
        probs, branches = pointer_readout(rho.mat, probe)
        observed_probs, observed = observe_stack(rho.mat, probe)
        assert probs.tolist() == observed_probs.tolist() == [1.0, 0.0, 0.0]
        assert np.array_equal(branches, observed)


class TestSpectraUnchanged:
    def test_compares_the_largest_componentwise_change(self):
        before = np.array([[0.5, 0.5], [0.9, 0.1], [1.0, 0.0]])
        after = np.array([[0.5, 0.5], [0.9 - 2e-9, 0.1 + 2e-9], [1.0 - 5e-10, 5e-10]])
        assert spectra_unchanged(before, after).tolist() == [True, False, True]

    def test_broadcasts_one_spectrum_against_a_stack(self):
        branches = np.array([[[0.5, 0.5], [0.6, 0.4]], [[0.5, 0.5], [0.5, 0.5]]])
        assert spectra_unchanged(np.array([0.5, 0.5]), branches).all(axis=-1).tolist() == [False, True]

    def test_empty_spectra_are_unchanged(self):
        assert spectra_unchanged(np.zeros((3, 0)), np.zeros((3, 0))).tolist() == [True] * 3

    @given(dim=dims, seed=seeds)
    def test_is_trivial_functions_read_the_state_spectra(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = states.random_density(dim, rng)
        env = checked_gram(gram_from_unit_rows(sampling.pure_from_normals(rng.standard_normal((dim, 2 * dim)), dim)))
        probe = sampling.probing_from_normals(rng.standard_normal(2 * dim * dim), dim, dim)
        after = matcore.hermitian_spectrum(rho.mat * env)
        reference = matcore.hermitian_spectrum(rho.mat)
        assert is_trivial_decoherence(rho, env) == bool(matcore.max_abs(after - reference) <= 1e-9)
        probs, states_after = observe_stack(rho.mat, probe)
        branches = [matcore.hermitian_spectrum(state) for state in states_after[probs > 0.0]]
        expected = all(matcore.max_abs(lam - reference) <= 1e-9 for lam in branches)
        assert is_trivial_probing(rho, probe) == expected

    def test_decoherence_solves_only_the_decohered_state(self, solved):
        rho, env = plus(), checked_gram(np.eye(2))
        solved[0] = 0
        assert not is_trivial_decoherence(rho, env)
        assert solved[0] == 1

    def test_probing_solves_only_the_live_branches(self, solved):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        solved[0] = 0
        assert is_trivial_probing(rho, np.ones((2, 3)) / np.sqrt(3.0))
        assert solved[0] == 3

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decobs import matcore, povm, states
from decobs.entropy import entropies_of_spectra, entropy, expected_entropy_stack, linear, renyi, von_neumann
from decobs.errors import ValidationError
from decobs.povm import (
    Povm,
    ancilla_factors,
    apply_povm,
    counterexample_1,
    counterexample_2,
    is_purity_preserving,
    purify_ancilla,
)
from decobs.stacks import average_stack
from decobs.tolerances import ZERO_PROBABILITY
from decobs.states import (
    DensityMatrix,
    ProjectorSet,
    basis_state,
    density_from_pure,
    maximally_mixed,
)

LN2 = math.log(2.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def expected_after(probs, spectra, functional) -> float:
    """The expected entropy of a measurement's live branches, from what apply_povm returns."""
    return float(expected_entropy_stack(probs[probs > 0], entropies_of_spectra(spectra, (functional,))[0]))


def branch_average(probs, branches) -> DensityMatrix:
    """The probability-weighted average of a measurement's live branch states."""
    live = probs > 0
    return DensityMatrix(average_stack(probs[live], branches[live]))


class TestCounterexample1:
    def test_probabilities_and_outcomes(self):
        measurement, initial = counterexample_1()
        probs, branches, spectra = apply_povm(initial, measurement)
        assert np.allclose(probs, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        assert probs[2] == 0.0 and not branches[2].any()
        assert len(spectra) == 2
        for state in branches[probs > 0]:
            assert matcore.max_abs(state - np.eye(2) / 2.0) <= 1e-12

    def test_dead_branches_are_exact_zeros(self):
        # the convention of observe_stack: p exactly 0.0 and an all-zero state
        measurement, initial = counterexample_1()
        probs, branches, _ = apply_povm(initial, measurement)
        assert probs[2:].tolist() == [0.0, 0.0]
        assert np.array_equal(branches[2:], np.zeros((2, 2, 2)))

    def test_expected_entropy_rises(self):
        measurement, initial = counterexample_1()
        probs, _, spectra = apply_povm(initial, measurement)
        before = entropy(initial, von_neumann())
        after = expected_after(probs, spectra, von_neumann())
        assert abs(before) <= 1e-12
        assert abs(after - LN2) <= 1e-12
        # the observation inequality is violated by a full ln 2
        assert after - before >= LN2 - 1e-9

    def test_averaging_side_still_holds(self):
        measurement, initial = counterexample_1()
        probs, branches, _ = apply_povm(initial, measurement)
        average = branch_average(probs, branches)
        assert matcore.max_abs(average.mat - np.eye(2) / 2.0) <= 1e-12
        assert entropy(initial, von_neumann()) <= entropy(average, von_neumann()) + 1e-9

    def test_not_purity_preserving(self):
        measurement, _ = counterexample_1()
        assert not is_purity_preserving(measurement)


class TestCounterexample2:
    def test_probabilities_and_outcomes(self):
        measurement, initial = counterexample_2()
        probs, branches, _ = apply_povm(initial, measurement)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)
        ket0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        for state in branches[probs > 0]:
            assert matcore.max_abs(state - ket0) <= 1e-12

    def test_average_entropy_drops(self):
        measurement, initial = counterexample_2()
        probs, branches, _ = apply_povm(initial, measurement)
        before = entropy(initial, von_neumann())
        after = entropy(branch_average(probs, branches), von_neumann())
        assert abs(before - LN2) <= 1e-12
        assert abs(after) <= 1e-12
        # the decoherence inequality is violated by a full ln 2
        assert before - after >= LN2 - 1e-9

    def test_observation_side_still_holds(self):
        measurement, initial = counterexample_2()
        probs, _, spectra = apply_povm(initial, measurement)
        assert expected_after(probs, spectra, von_neumann()) <= entropy(initial, von_neumann()) + 1e-9

    def test_is_purity_preserving(self):
        measurement, _ = counterexample_2()
        assert is_purity_preserving(measurement)
        factors = ancilla_factors(measurement)
        overlap = abs(np.vdot(factors[0], basis_state(2, 0).amp))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_renyi_direction_preserved(self):
        measurement, initial = counterexample_2()
        probs, branches, _ = apply_povm(initial, measurement)
        before = entropy(initial, renyi(2.0))
        after = entropy(branch_average(probs, branches), renyi(2.0))
        assert before == pytest.approx(-0.5)
        assert after == pytest.approx(-1.0)
        assert after < before


class TestPurifyAncilla:
    def test_pure_input_round_trip(self):
        rho = density_from_pure(states.random_pure(3, np.random.default_rng(4)))
        purified = purify_ancilla(rho)
        reduced = matcore.partial_trace(
            np.outer(purified.amp, purified.amp.conj()), 3, 3, keep="first"
        )
        assert matcore.max_abs(reduced - rho.mat) <= 1e-10

    def test_maximally_mixed_purifies_to_maximally_entangled(self):
        purified = purify_ancilla(maximally_mixed(2))
        joint = np.outer(purified.amp, purified.amp.conj())
        for keep in ("first", "second"):
            reduced = matcore.partial_trace(joint, 2, 2, keep=keep)
            assert matcore.max_abs(reduced - np.eye(2) / 2.0) <= 1e-10

    @given(dim=st.integers(2, 5), seed=seeds)
    def test_random_mixed_round_trip(self, dim, seed):
        rho = states.random_density(dim, np.random.default_rng(seed))
        purified = purify_ancilla(rho)
        reduced = matcore.partial_trace(
            np.outer(purified.amp, purified.amp.conj()), dim, dim, keep="first"
        )
        assert matcore.max_abs(reduced - rho.mat) <= 1e-10


class TestApplyPovm:
    @settings(max_examples=30)
    @given(n=st.integers(2, 3), d=st.integers(2, 3), seed=seeds)
    def test_probabilities_form_distribution(self, n, d, seed):
        rng = np.random.default_rng(seed)
        measurement = povm.random_general_povm(n, d, rng)
        rho = states.random_density(n, rng)
        probs, _, _ = apply_povm(rho, measurement)
        assert abs(sum(probs.tolist()) - 1.0) <= 1e-10
        assert (probs >= 0.0).all()

    @settings(max_examples=30)
    @given(n=st.integers(2, 3), d=st.integers(2, 3), seed=seeds)
    def test_mixed_ancilla_matches_manual_purification(self, n, d, seed):
        rng = np.random.default_rng(seed)
        base = povm.random_general_povm(n, d, rng)
        mixed_ancilla = states.random_density(d, rng)
        mixed = Povm(n, d, mixed_ancilla, base.joint_unitary, base.joint_projectors)
        rho = states.random_density(n, rng)
        probs, branches, _ = apply_povm(rho, mixed)

        purified = purify_ancilla(mixed_ancilla)
        eye = np.eye(d, dtype=complex)
        lifted = Povm(
            n,
            d * d,
            density_from_pure(purified),
            np.kron(base.joint_unitary, eye),
            ProjectorSet(tuple(np.kron(p, eye) for p in base.joint_projectors)),
        )
        reference_probs, reference, _ = apply_povm(rho, lifted)
        assert matcore.max_abs(probs - reference_probs) <= 1e-12
        for probability, state, expected in zip(reference_probs, branches, reference):
            if probability > 0:
                assert matcore.max_abs(state - expected) <= 1e-12

    @settings(max_examples=40)
    @given(n=st.integers(1, 4), d=st.integers(1, 3), pppovm=st.booleans(), seed=seeds)
    def test_each_branch_is_the_one_projector_formula(self, n, d, pppovm, seed):
        # the stacked branches equal, bit for bit, P @ evolved @ P, its partial trace and that
        # trace taken one projector at a time, and each spectrum is the value type's
        rng = np.random.default_rng(seed)
        measurement = (povm.random_pppovm if pppovm else povm.random_general_povm)(n, d, rng)
        rho = states.random_density(n, rng)
        probs, branches, spectra = apply_povm(rho, measurement)
        unitary = measurement.joint_unitary
        evolved = unitary @ matcore.tensor_product(rho.mat, measurement.ancilla_state.mat) @ unitary.conj().T
        live = []
        for k, projector in enumerate(measurement.joint_projectors):
            reduced = matcore.partial_trace(projector @ evolved @ projector, n, d, keep="first")
            p = float(np.trace(reduced).real)
            if p > ZERO_PROBABILITY:
                assert probs[k] == p and np.array_equal(branches[k], reduced / p)
                live.append(DensityMatrix(reduced / p).spectrum)
            else:
                assert probs[k] == 0.0 and not branches[k].any()
        assert np.array_equal(spectra, np.reshape(live, (-1, n)))

    def test_rejects_dimension_mismatch(self):
        measurement, _ = counterexample_1()
        with pytest.raises(ValidationError) as err:
            apply_povm(maximally_mixed(3), measurement)
        assert err.value.invariant == "state-object-dim"


class TestPovmValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError) as err:
            Povm(
                2,
                2,
                density_from_pure(basis_state(2, 0)),
                np.eye(4) * 2.0,
                ProjectorSet(tuple(np.diag(row).astype(complex) for row in np.eye(4))),
            )
        assert err.value.invariant == "joint-unitary"

    def test_rejects_wrong_ancilla_dim(self):
        with pytest.raises(ValidationError) as err:
            Povm(
                2,
                2,
                maximally_mixed(3),
                np.eye(4),
                ProjectorSet(tuple(np.diag(row).astype(complex) for row in np.eye(4))),
            )
        assert err.value.invariant == "ancilla-state-dim"

    @pytest.mark.parametrize("object_dim, ancilla_dim", [(0, 2), (2, 0), (-1, 2)])
    def test_rejects_non_positive_dims(self, object_dim, ancilla_dim):
        projectors = counterexample_1()[0].joint_projectors
        with pytest.raises(ValidationError) as err:
            Povm(object_dim, ancilla_dim, density_from_pure(basis_state(2, 0)), np.eye(4), projectors)
        assert err.value.invariant == "positive-dims"

    @pytest.mark.parametrize("joint_dim", [2, 3, 8])
    def test_rejects_unitary_of_the_wrong_dim(self, joint_dim):
        projectors = counterexample_1()[0].joint_projectors
        with pytest.raises(ValidationError) as err:
            Povm(2, 2, density_from_pure(basis_state(2, 0)), np.eye(joint_dim), projectors)
        assert err.value.invariant == "joint-unitary-dim"
        assert f"got {joint_dim}, expected 4" in str(err.value)


class TestPurityPreservation:
    @settings(max_examples=25)
    @given(n=st.integers(2, 3), d=st.integers(2, 4), seed=seeds)
    def test_structural_class_keeps_pure_states_pure(self, n, d, seed):
        rng = np.random.default_rng(seed)
        measurement = povm.random_pppovm(n, d, rng)
        assert is_purity_preserving(measurement)
        for _ in range(5):
            rho = density_from_pure(states.random_pure(n, rng))
            _, _, spectra = apply_povm(rho, measurement)
            assert (entropies_of_spectra(spectra, (linear(),))[0] <= 1e-9).all()

    @settings(max_examples=15)
    @given(n=st.integers(2, 3), d=st.integers(2, 3), seed=seeds)
    def test_non_factoring_projectors_break_purity_somewhere(self, n, d, seed):
        # sampled converse: a measurement whose projectors do not all factor
        # must visibly mix at least one of 100 random pure inputs
        rng = np.random.default_rng(seed)
        measurement = povm.random_general_povm(n, d, rng)
        if is_purity_preserving(measurement):
            return  # partition happened to factor; not a converse witness
        for _ in range(100):
            rho = density_from_pure(states.random_pure(n, rng))
            _, _, spectra = apply_povm(rho, measurement)
            if (entropies_of_spectra(spectra, (linear(),))[0] > 1e-6).any():
                return
        raise AssertionError("no impure outcome found for a non-factoring measurement")

    def test_recovered_basis_is_orthonormal(self):
        measurement = povm.random_pppovm(3, 4, np.random.default_rng(77))
        factors = ancilla_factors(measurement)
        gram = np.array([[np.vdot(u, v) for v in factors] for u in factors])
        assert matcore.max_abs(gram - np.eye(4)) <= 1e-8

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decobs import matcore, povm, states
from decobs.entropy import entropy, expected_entropy, linear, renyi, von_neumann
from decobs.errors import ValidationError
from decobs.povm import (
    Povm,
    ancilla_factors,
    apply_povm,
    counterexample_1,
    counterexample_2,
    is_purity_preserving,
    probing_as_povm,
    purify_ancilla,
)
from decobs.processes import ensemble_average
from decobs.stacks import observe_stack
from decobs.states import (
    DensityMatrix,
    ProjectorSet,
    basis_state,
    density_from_pure,
    maximally_mixed,
)

LN2 = math.log(2.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestCounterexample1:
    def test_probabilities_and_outcomes(self):
        measurement, initial = counterexample_1()
        ens = apply_povm(initial, measurement)
        probs = [o.probability for o in ens]
        assert np.allclose(probs, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        assert ens.outcomes[2].probability == 0.0 and ens.outcomes[2].state is None
        for outcome in ens.live():
            assert matcore.max_abs(outcome.state.mat - np.eye(2) / 2.0) <= 1e-12

    def test_expected_entropy_rises(self):
        measurement, initial = counterexample_1()
        ens = apply_povm(initial, measurement)
        before = entropy(initial, von_neumann())
        after = expected_entropy(ens, von_neumann())
        assert abs(before) <= 1e-12
        assert abs(after - LN2) <= 1e-12
        # the observation inequality is violated by a full ln 2
        assert after - before >= LN2 - 1e-9

    def test_averaging_side_still_holds(self):
        measurement, initial = counterexample_1()
        ens = apply_povm(initial, measurement)
        average = ensemble_average(ens)
        assert matcore.max_abs(average.mat - np.eye(2) / 2.0) <= 1e-12
        assert entropy(initial, von_neumann()) <= entropy(average, von_neumann()) + 1e-9

    def test_not_purity_preserving(self):
        measurement, _ = counterexample_1()
        assert not is_purity_preserving(measurement)


class TestCounterexample2:
    def test_probabilities_and_outcomes(self):
        measurement, initial = counterexample_2()
        ens = apply_povm(initial, measurement)
        assert np.allclose([o.probability for o in ens], [0.5, 0.5], atol=1e-12)
        ket0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        for outcome in ens.live():
            assert matcore.max_abs(outcome.state.mat - ket0) <= 1e-12

    def test_average_entropy_drops(self):
        measurement, initial = counterexample_2()
        ens = apply_povm(initial, measurement)
        before = entropy(initial, von_neumann())
        after = entropy(ensemble_average(ens), von_neumann())
        assert abs(before - LN2) <= 1e-12
        assert abs(after) <= 1e-12
        # the decoherence inequality is violated by a full ln 2
        assert before - after >= LN2 - 1e-9

    def test_observation_side_still_holds(self):
        measurement, initial = counterexample_2()
        ens = apply_povm(initial, measurement)
        assert expected_entropy(ens, von_neumann()) <= entropy(initial, von_neumann()) + 1e-9

    def test_is_purity_preserving(self):
        measurement, _ = counterexample_2()
        assert is_purity_preserving(measurement)
        factors = ancilla_factors(measurement)
        overlap = abs(np.vdot(factors[0], basis_state(2, 0).amp))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_renyi_direction_preserved(self):
        measurement, initial = counterexample_2()
        ens = apply_povm(initial, measurement)
        before = entropy(initial, renyi(2.0))
        after = entropy(ensemble_average(ens), renyi(2.0))
        assert before == pytest.approx(-0.5)
        assert after == pytest.approx(-1.0)
        assert after < before


class TestProbingAsPovm:
    @settings(max_examples=40)
    @given(n=st.integers(2, 4), d=st.integers(2, 4), seed=seeds)
    def test_matches_observe(self, n, d, seed):
        rng = np.random.default_rng(seed)
        responses = [states.random_pure(d, rng) for _ in range(n)]
        rho = states.random_density(n, rng)
        lifted = apply_povm(rho, probing_as_povm(responses))
        probs, branches = observe_stack(rho.mat, np.array([r.amp for r in responses]))
        assert len(lifted) == len(probs)
        for mine, probability, state in zip(lifted, probs, branches):
            assert abs(mine.probability - probability) <= 1e-12
            if probability > 0:
                assert matcore.max_abs(mine.state.mat - state) <= 1e-12

    def test_orthonormal_responses_give_complete_readout(self):
        responses = [basis_state(2, 0), basis_state(2, 1)]
        rho = DensityMatrix(np.full((2, 2), 0.5))
        ens = apply_povm(rho, probing_as_povm(responses))
        assert np.allclose([o.probability for o in ens], [0.5, 0.5])
        for outcome in ens.live():
            assert entropy(outcome.state, linear()) <= 1e-9

    def test_identical_responses_leave_state_unchanged(self):
        rng = np.random.default_rng(21)
        response = states.random_pure(3, rng)
        rho = states.random_density(2, rng)
        ens = apply_povm(rho, probing_as_povm([response, response]))
        for outcome in ens.live():
            assert matcore.max_abs(outcome.state.mat - rho.mat) <= 1e-11

    @given(n=st.integers(2, 4), d=st.integers(2, 4), seed=seeds)
    def test_always_purity_preserving(self, n, d, seed):
        rng = np.random.default_rng(seed)
        responses = [states.random_pure(d, rng) for _ in range(n)]
        assert is_purity_preserving(probing_as_povm(responses))


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
        ens = apply_povm(rho, measurement)
        assert abs(sum(o.probability for o in ens) - 1.0) <= 1e-10
        assert all(o.probability >= 0.0 for o in ens)

    @settings(max_examples=30)
    @given(n=st.integers(2, 3), d=st.integers(2, 3), seed=seeds)
    def test_mixed_ancilla_matches_manual_purification(self, n, d, seed):
        rng = np.random.default_rng(seed)
        base = povm.random_general_povm(n, d, rng)
        mixed_ancilla = states.random_density(d, rng)
        mixed = Povm(n, d, mixed_ancilla, base.joint_unitary, base.joint_projectors)
        rho = states.random_density(n, rng)
        ens = apply_povm(rho, mixed)

        purified = purify_ancilla(mixed_ancilla)
        eye = np.eye(d, dtype=complex)
        lifted = Povm(
            n,
            d * d,
            density_from_pure(purified),
            np.kron(base.joint_unitary, eye),
            ProjectorSet(tuple(np.kron(p, eye) for p in base.joint_projectors)),
        )
        reference = apply_povm(rho, lifted)
        for mine, ref in zip(ens, reference):
            assert abs(mine.probability - ref.probability) <= 1e-12
            if ref.probability > 0:
                assert matcore.max_abs(mine.state.mat - ref.state.mat) <= 1e-12

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


class TestPurityPreservation:
    @settings(max_examples=25)
    @given(n=st.integers(2, 3), d=st.integers(2, 4), seed=seeds)
    def test_structural_class_keeps_pure_states_pure(self, n, d, seed):
        rng = np.random.default_rng(seed)
        measurement = povm.random_pppovm(n, d, rng)
        assert is_purity_preserving(measurement)
        for _ in range(5):
            rho = density_from_pure(states.random_pure(n, rng))
            for outcome in apply_povm(rho, measurement).live():
                assert entropy(outcome.state, linear()) <= 1e-9

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
            for outcome in apply_povm(rho, measurement).live():
                if entropy(outcome.state, linear()) > 1e-6:
                    return
        raise AssertionError("no impure outcome found for a non-factoring measurement")

    def test_recovered_basis_is_orthonormal(self):
        measurement = povm.random_pppovm(3, 4, np.random.default_rng(77))
        factors = ancilla_factors(measurement)
        gram = np.array([[np.vdot(u, v) for v in factors] for u in factors])
        assert matcore.max_abs(gram - np.eye(4)) <= 1e-8

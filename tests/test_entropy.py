import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decobs import matcore, sampling, states
from decobs.entropy import (
    NEG_INFINITY,
    EntropyFunctional,
    builtin_functionals,
    entropies_of_spectra,
    entropy,
    entropy_of_spectrum,
    expected_entropy_stack,
    linear,
    log_det,
    parse_functional,
    renyi,
    to_bits,
    von_neumann,
)
from decobs.campaigns.s_theorems import evaluate_s_theorems
from decobs.cli import CampaignConfig
from decobs.errors import ValidationError
from decobs.states import (
    DensityMatrix,
    basis_state,
    density_from_pure,
    maximally_mixed,
)

LN2 = math.log(2.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=8)


class TestFunctionalConstruction:
    def test_parse_round_trip(self):
        for text in ("von-neumann", "linear", "renyi:0.5", "renyi:2", "log-det", "renyi:0.1", "renyi:3"):
            assert parse_functional(text).label == text

    @given(alpha=st.floats(min_value=1e-300, max_value=1e300).filter(lambda a: a != 1.0))
    def test_every_renyi_label_reads_back_to_its_order(self, alpha):
        label = renyi(alpha).label
        assert parse_functional(label) == renyi(alpha)
        # the short form whenever it reads back
        assert label == f"renyi:{alpha:g}" or float(f"{alpha:g}") != alpha

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_functional("tsallis")

    def test_rejects_renyi_alpha_one(self):
        with pytest.raises(ValueError):
            renyi(1.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            renyi(-2.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="renyi requires a finite alpha > 0"):
            renyi(alpha)
        with pytest.raises(ValueError, match="renyi requires a finite alpha > 0"):
            parse_functional(f"renyi:{alpha}")

    @pytest.mark.parametrize("text", ["renyi:x", "renyi:", "renyi:2:3"])
    def test_rejects_unparsable_renyi_parameter(self, text):
        with pytest.raises(ValueError, match=f"bad renyi parameter in '{text}'"):
            parse_functional(text)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown entropy kind 'tsallis'"):
            EntropyFunctional("tsallis")

    @pytest.mark.parametrize("kind", ["von-neumann", "linear", "log-det"])
    def test_rejects_alpha_outside_renyi(self, kind):
        with pytest.raises(ValueError, match=f"alpha is only meaningful for renyi, not '{kind}'"):
            EntropyFunctional(kind, alpha=2.0)


class TestEntropyOfSpectrum:
    def test_maximally_mixed_qubit(self):
        assert entropy_of_spectrum([0.5, 0.5], von_neumann()) == pytest.approx(LN2)

    def test_pure(self):
        value = entropy_of_spectrum([1.0, 0.0], von_neumann())
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0  # not -0.0

    def test_renyi_power_sum_that_underflows_is_plus_zero(self):
        value = entropy_of_spectrum([0.5, 0.5], renyi(2000))
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0  # not -0.0

    def test_renyi_two_orientation(self):
        # mixed exceeds pure: -0.5 > -1
        assert entropy_of_spectrum([0.5, 0.5], renyi(2.0)) == pytest.approx(-0.5)
        assert entropy_of_spectrum([1.0, 0.0], renyi(2.0)) == pytest.approx(-1.0)

    def test_log_det_sentinel(self):
        assert entropy_of_spectrum([1.0, 0.0], log_det()) == NEG_INFINITY
        assert entropy_of_spectrum([0.5, 0.5], log_det()) == pytest.approx(-2.0 * LN2)

    def test_clamps_rounding_noise(self):
        assert entropy_of_spectrum([1.0 + 5e-11, -5e-11], von_neumann()) == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError) as err:
            entropy_of_spectrum([0.5, 0.4], von_neumann())
        assert err.value.invariant == "spectrum-sums-to-one"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError) as err:
            entropy_of_spectrum([1.5, -0.5], von_neumann())
        assert err.value.invariant == "spectrum-in-unit-interval"

    def test_rejects_empty_spectrum(self):
        with pytest.raises(ValidationError) as err:
            entropy_of_spectrum([], von_neumann())
        assert err.value.invariant == "spectrum-nonempty"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_spectrum(self, bad):
        with pytest.raises(ValidationError) as err:
            entropy_of_spectrum([1.0, bad], von_neumann())
        assert err.value.invariant == "spectrum-finite"
        # in a stack, the first failing row names the error
        with pytest.raises(ValidationError) as err:
            entropies_of_spectra(np.array([[0.5, 0.5], [1.0, bad], [1.5, -0.5]]), (linear(),))
        assert err.value.invariant == "spectrum-finite"

    @pytest.mark.parametrize("shape", [(3, 0), (2, 3, 0), (0, 0)])
    def test_rejects_stacks_of_empty_spectra(self, shape):
        with pytest.raises(ValidationError) as err:
            entropies_of_spectra(np.zeros(shape), (von_neumann(), linear()))
        assert err.value.invariant == "spectrum-nonempty"


class TestEntropy:
    def test_maximally_mixed(self):
        assert entropy(maximally_mixed(2), von_neumann()) == pytest.approx(LN2)

    def test_rank_one(self):
        rho = DensityMatrix(np.full((2, 2), 0.5))
        assert abs(entropy(rho, von_neumann())) <= 1e-15

    def test_linear_on_diagonal(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        assert entropy(rho, linear()) == pytest.approx(0.42)

    @given(dim=dims, seed=seeds)
    def test_unitary_invariance(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = states.random_density(dim, rng)
        u = states.haar_unitary(dim, rng)
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
        for f in builtin_functionals():
            assert entropy(rotated, f) == pytest.approx(entropy(rho, f), abs=1e-9)

    @given(dim=dims, seed=seeds)
    def test_tensoring_with_pure_state(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = states.random_density(dim, rng)
        pointer = states.random_pure(3, rng)
        padded = DensityMatrix(
            matcore.tensor_product(rho.mat, np.outer(pointer.amp, pointer.amp.conj()))
        )
        # h(0) = 0 for von Neumann, linear, and both renyi branches, so the
        # padded zeros change nothing; log-det hits its singular sentinel
        for f in (von_neumann(), linear(), renyi(0.5), renyi(2.0)):
            assert entropy(padded, f) == pytest.approx(entropy(rho, f), abs=1e-9)
        assert entropy(padded, log_det()) == NEG_INFINITY

    @given(dim=dims, seed=seeds)
    def test_concavity_consequence_for_mixing_toward_uniform(self, dim, seed):
        # mixing any distribution toward uniform is dominance-decreasing, so
        # every concave sum must not decrease
        rng = np.random.default_rng(seed)
        lam = sampling.random_simplex(dim, rng)
        t = rng.uniform(0.0, 1.0)
        mu = (1.0 - t) * lam + t * np.full(dim, 1.0 / dim)
        for f in builtin_functionals():
            s_lam = entropy_of_spectrum(lam, f)
            s_mu = entropy_of_spectrum(mu, f)
            assert s_lam <= s_mu + 1e-9

    @given(dim=dims, seed=seeds)
    def test_maximal_at_maximally_mixed(self, dim, seed):
        rho = states.random_density(dim, np.random.default_rng(seed))
        for f in builtin_functionals():
            assert entropy(maximally_mixed(dim), f) >= entropy(rho, f) - 1e-9


def expected_branch_entropy(rho, probe) -> float:
    """The von Neumann entropy of rho's observation branches, averaged: the lhs of the campaign's observation row."""
    cfg = CampaignConfig("verify-s-theorems", functionals=("von-neumann",))
    columns, _, _ = evaluate_s_theorems(cfg, range(1), (rho[None], probe[None]))
    assert columns["side"][0] == "observation"
    return float(columns["lhs"][0])


class TestExpectedEntropy:
    def test_pure_outcomes_give_zero(self):
        assert expected_branch_entropy(np.full((2, 2), 0.5), np.eye(2)) == 0.0

    def test_zero_probability_skips_sentinel(self):
        branches = (maximally_mixed(2), density_from_pure(basis_state(2, 0)))
        entropies = [entropy(rho, log_det()) for rho in branches]
        # the dead branch would contribute -inf under log-det; it must not
        assert entropies[1] == NEG_INFINITY
        assert expected_entropy_stack([1.0, 0.0], entropies) == pytest.approx(-2.0 * LN2)

    def test_probing_preserves_purity_of_plus(self):
        probe = np.array([[1.0, 0.0], [2**-0.5, 2**-0.5]])
        assert expected_branch_entropy(np.full((2, 2), 0.5), probe) == pytest.approx(0.0, abs=1e-12)

    def test_weighted_average(self):
        branches = (maximally_mixed(2), density_from_pure(basis_state(2, 1)))
        entropies = [entropy(rho, von_neumann()) for rho in branches]
        assert expected_entropy_stack([0.25, 0.75], entropies) == pytest.approx(0.25 * LN2)


class TestUnits:
    def test_nats_to_bits(self):
        assert to_bits(LN2) == pytest.approx(1.0)

    def test_sentinel_passes_through(self):
        assert to_bits(NEG_INFINITY) == NEG_INFINITY

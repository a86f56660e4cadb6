import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decobs import matcore, sampling, states
from decobs.cli import CampaignConfig, run_holevo, run_majorization
from decobs.entropy import (
    builtin_functionals, entropy, expected_entropy_stack, inequality_verdict, log_det, von_neumann,
)
from decobs.majorization import dominance, fan_dominance, gram_from_unit_rows, pinching_dominance, schur_dominance
from decobs.states import DensityMatrix, ProjectorSet, basis_state, density_from_pure, maximally_mixed
from decobs.stacks import average_stack, clean_probabilities, validate_stack
from decobs.tolerances import INEQUALITY_TOL

LN2 = math.log(2.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=8)


def mixed_toward_uniform(lam: np.ndarray, t: float) -> np.ndarray:
    """Doubly-stochastic mixing, guaranteed to be dominated by lam."""
    n = lam.size
    return (1.0 - t) * lam + t * np.full(n, lam.sum() / n)


def random_mixture(dim: int, size: int, rng) -> tuple[list, list]:
    """Simplex weights over random density matrices, drawn as the holevo campaign draws a mixture."""
    probs = sampling.random_simplex(size, rng)
    mats = sampling.density_from_normals(rng.standard_normal((size, 2 * dim * dim)), dim)
    return probs.tolist(), [DensityMatrix(mat) for mat in mats]


def holevo_verdict(probs, mixed, functional):
    """Margin and verdict of: average branch entropy <= entropy of the average state.

    ``mixed`` holds one density matrix per probability; the dead (p = 0)
    branches are left out of both sides.
    """
    probs = clean_probabilities(probs)
    live = probs > 0.0
    average = DensityMatrix(average_stack(probs[live], np.array([rho.mat for rho in mixed])[live]))
    branch = [entropy(rho, functional) for rho, alive in zip(mixed, live) if alive]
    expected = float(expected_entropy_stack(probs[live], branch))
    return inequality_verdict(expected, entropy(average, functional), INEQUALITY_TOL)


def entropy_order(rho1, rho2, functional):
    """Whether lambda(rho1) majorizes lambda(rho2), and the margin and verdict of S(rho1) <= S(rho2)."""
    verdict = inequality_verdict(entropy(rho1, functional), entropy(rho2, functional), INEQUALITY_TOL)
    return (dominance(rho1.spectrum, rho2.spectrum).holds(INEQUALITY_TOL), *verdict)


def pinching_checks(h, partition):
    """The spectrum of h, then the pinching kernel's parts, pinched spectrum and upper and lower dominances."""
    lam = validate_stack(h, "hermitian")
    return (lam, *pinching_dominance(lam, h, np.array(partition.projectors)))


class TestMajorizes:
    def test_pure_dominates_mixed(self):
        assert dominance([1.0, 0.0], [0.5, 0.5]).holds(INEQUALITY_TOL)
        assert not dominance([0.5, 0.5], [1.0, 0.0]).holds(INEQUALITY_TOL)

    def test_prefix_and_sum_cases(self):
        assert dominance([0.7, 0.3], [0.6, 0.4]).holds(INEQUALITY_TOL)
        assert not dominance([0.7, 0.2], [0.6, 0.4]).holds(INEQUALITY_TOL)  # sums differ

    def test_zero_padding(self):
        assert dominance([1.0], [0.5, 0.5]).holds(INEQUALITY_TOL)
        assert dominance([0.6, 0.4, 0.0], [0.6, 0.4]).holds(INEQUALITY_TOL)

    def test_sorting_is_internal(self):
        assert dominance([0.3, 0.7], [0.4, 0.6]).holds(INEQUALITY_TOL)

    @given(dim=dims, seed=seeds)
    def test_reflexive(self, dim, seed):
        lam = sampling.random_simplex(dim, np.random.default_rng(seed))
        assert dominance(lam, lam).holds(INEQUALITY_TOL)

    @given(dim=dims, seed=seeds)
    def test_transitive_on_mixing_chains(self, dim, seed):
        rng = np.random.default_rng(seed)
        lam = sampling.random_simplex(dim, rng)
        mu = mixed_toward_uniform(lam, rng.uniform(0.0, 1.0))
        nu = mixed_toward_uniform(mu, rng.uniform(0.0, 1.0))
        assert dominance(lam, mu).holds(INEQUALITY_TOL)
        assert dominance(mu, nu).holds(INEQUALITY_TOL)
        assert dominance(lam, nu).holds(INEQUALITY_TOL)

    @given(dim=dims, seed=seeds)
    def test_mutual_dominance_means_equal_sorted(self, dim, seed):
        rng = np.random.default_rng(seed)
        lam = sampling.random_simplex(dim, rng)
        mu = np.array(sorted(lam, reverse=True))
        assert dominance(lam, mu).holds(INEQUALITY_TOL) and dominance(mu, lam).holds(INEQUALITY_TOL)
        forward = dominance(lam, mu).margins
        assert matcore.max_abs(forward) <= 1e-12


def reference_dominance_row(dominator, dominated, tol):
    """(lhs, rhs, margin, violation) of a majorization campaign row, each step written out."""
    lam = -np.sort(-np.asarray(dominator, dtype=float))
    mu = -np.sort(-np.asarray(dominated, dtype=float))
    prefix_lam = np.cumsum(lam)
    prefix_mu = np.cumsum(mu)
    margins = prefix_lam - prefix_mu
    worst = int(np.argmin(margins))
    sum_residual = abs(float(prefix_lam[-1] - prefix_mu[-1]))
    margin = float(margins[worst])
    return float(prefix_mu[worst]), float(prefix_lam[worst]), margin, margin < -tol or sum_residual > tol


HAND_CASES = [
    ([1.0, 0.0], [0.5, 0.5], True),
    ([0.5, 0.5], [1.0, 0.0], False),
    ([0.7, 0.3], [0.6, 0.4], True),
    ([0.7, 0.2], [0.6, 0.4], False),
    ([1.0], [0.5, 0.5], True),
    ([0.6, 0.4, 0.0], [0.6, 0.4], True),
    ([0.3, 0.7], [0.4, 0.6], True),
]


class TestDominanceKernel:
    @pytest.mark.parametrize("lam, mu, expected", HAND_CASES)
    def test_margins_and_majorizes_agree_with_the_kernel(self, lam, mu, expected):
        check = dominance(lam, mu)
        assert dominance(lam, mu).holds(INEQUALITY_TOL) is check.holds(INEQUALITY_TOL) is expected
        size = max(len(lam), len(mu))
        padded = [np.pad(np.asarray(x, dtype=float), (0, size - len(x))) for x in (lam, mu)]
        descending = [-np.sort(-x) for x in padded]
        assert np.array_equal(check.margins, np.cumsum(descending[0]) - np.cumsum(descending[1]))
        lhs, rhs, margin, violation = reference_dominance_row(*padded, INEQUALITY_TOL)
        assert (check.dominated_prefix, check.dominator_prefix, check.worst_margin) == (lhs, rhs, margin)
        assert violation is not expected

    @pytest.mark.parametrize("tol", [INEQUALITY_TOL, 1e-30])
    @pytest.mark.parametrize("response", ["1", "d"])
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_campaign_rows_match_the_row_formula(self, seed, dim, response, tol):
        # replays each trial's draws and checks, then builds the rows from the spectra
        response_dim = 1 if response == "1" else dim
        cfg = CampaignConfig("majorization", seed=seed, dim=dim, trials=15, response_dim=response_dim, tol=tol)
        expected = []
        for trial in range(cfg.trials):
            rng = sampling.trial_stream(seed, trial)
            rho = states.random_density(dim, rng)
            responses = sampling.pure_from_normals(rng.standard_normal((dim, 2 * response_dim)), response_dim)
            env = gram_from_unit_rows(responses)
            lam_schur, _ = schur_dominance(rho.spectrum, rho.mat * env)
            pinch_input = states.random_density(dim, rng).mat
            partition = states.random_projector_partition(dim, sampling.random_block_sizes(dim, rng), rng)
            lam, parts, lam_pinched, *_ = pinching_checks(pinch_input, partition)
            a = states.random_hermitian(dim, rng)
            combined, lam_sum, _ = fan_dominance(a, states.random_hermitian(dim, rng))
            for side, dominator, dominated in (
                ("schur", rho.spectrum, lam_schur),
                ("pinching-upper", parts, lam),
                ("pinching-lower", lam, lam_pinched),
                ("fan", combined, lam_sum),
            ):
                lhs, rhs, margin, violation = reference_dominance_row(dominator, dominated, tol)
                expected.append({
                    "trial": trial, "dim": dim, "functional": "", "side": side, "lhs": lhs, "rhs": rhs,
                    "margin": margin, "trivial": None, "violation": violation,
                })
        assert run_majorization(cfg).report["rows"] == expected


class TestSchurMajorization:
    def test_all_ones_overlap_is_equality(self):
        rho = states.random_density(3, np.random.default_rng(8))
        validate_stack(np.ones((3, 3)), "gram")
        _, check = schur_dominance(rho.spectrum, rho.mat * np.ones((3, 3)))
        assert check.holds(INEQUALITY_TOL)
        assert matcore.max_abs(np.array(check.margins)) <= 1e-9

    def test_plus_state_full_reduction(self, plus_density):
        rho = DensityMatrix(plus_density)
        validate_stack(np.eye(2), "gram")
        lam_schur, check = schur_dominance(rho.spectrum, rho.mat * np.eye(2))
        assert check.holds(INEQUALITY_TOL)
        assert tuple(rho.spectrum) == pytest.approx((1.0, 0.0), abs=1e-12)
        assert tuple(lam_schur) == pytest.approx((0.5, 0.5))

    @settings(max_examples=60)
    @given(dim=dims, response_dim=st.integers(1, 8), seed=seeds)
    def test_random_campaign(self, dim, response_dim, seed):
        rng = np.random.default_rng(seed)
        rho = states.random_density(dim, rng)
        responses = sampling.pure_from_normals(rng.standard_normal((dim, 2 * response_dim)), response_dim)
        env = gram_from_unit_rows(responses)
        _, check = schur_dominance(rho.spectrum, rho.mat * env)
        assert check.holds(INEQUALITY_TOL), check.margins

    def test_report_serializes(self):
        result = run_majorization(CampaignConfig("majorization", seed=7, dim=2, trials=8))
        as_dict = json.loads(json.dumps(result.report, allow_nan=False))
        schur = [row for row in as_dict["rows"] if row["side"] == "schur"]
        assert [row["trial"] for row in schur] == list(range(8))
        assert not any(row["violation"] for row in schur)
        assert set(schur[0]) >= {"trial", "lhs", "rhs", "margin", "violation"}


class TestPinchingDouble:
    def test_trivial_projector_is_equality(self):
        rho = states.random_density(3, np.random.default_rng(2))
        *_, upper, lower = pinching_checks(rho.mat, ProjectorSet((np.eye(3, dtype=complex),)))
        assert upper.holds(INEQUALITY_TOL) and lower.holds(INEQUALITY_TOL)
        assert matcore.max_abs(np.concatenate((upper.margins, lower.margins))) <= 1e-9

    def test_plus_state_hand_case(self, plus_density):
        partition = ProjectorSet((np.diag([1.0, 0]), np.diag([0.0, 1])))
        lam, parts, lam_pinched, upper, lower = pinching_checks(plus_density, partition)
        assert upper.holds(INEQUALITY_TOL) and lower.holds(INEQUALITY_TOL)
        assert tuple(parts) == pytest.approx((1.0, 0.0), abs=1e-12)
        assert tuple(lam) == pytest.approx((1.0, 0.0), abs=1e-12)
        assert tuple(lam_pinched) == pytest.approx((0.5, 0.5))

    def test_block_matrix_hand_case(self):
        # 2+2 block PSD matrix assembled from fixed blocks
        rng = np.random.default_rng(31)
        g = sampling.complex_from_normals(rng.standard_normal(32), (4, 4))
        h = g @ g.conj().T
        h = h / np.trace(h).real
        *_, upper, lower = pinching_checks(h, ProjectorSet((np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 1]))))
        assert upper.holds(INEQUALITY_TOL) and lower.holds(INEQUALITY_TOL)

    @settings(max_examples=60)
    @given(dim=dims, seed=seeds)
    def test_random_psd_campaign(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = states.random_density(dim, rng)
        partition = states.random_projector_partition(dim, sampling.random_block_sizes(dim, rng), rng)
        *_, upper, lower = pinching_checks(rho.mat, partition)
        assert upper.holds(INEQUALITY_TOL) and lower.holds(INEQUALITY_TOL), (upper.margins, lower.margins)

    @settings(max_examples=60)
    @given(dim=dims, seed=seeds)
    def test_lower_dominance_holds_for_indefinite_input(self, dim, seed):
        # only the pinched-matrix half is claimed for general Hermitian input
        rng = np.random.default_rng(seed)
        h = states.random_hermitian(dim, rng)
        partition = states.random_projector_partition(dim, sampling.random_block_sizes(dim, rng), rng)
        lam, _, lam_pinched, *_ = pinching_checks(h, partition)
        assert dominance(lam, lam_pinched).holds(1e-9)

    def test_upper_dominance_fails_for_zero_diagonal_blocks(self):
        # the PSD requirement is sharp: a flip matrix pinched by rank-1
        # projectors leaves nothing, and (0, 0) cannot dominate (1, -1)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        partition = ProjectorSet((np.diag([1.0, 0]), np.diag([0.0, 1])))
        lam, parts, lam_pinched, *_ = pinching_checks(flip, partition)
        assert not dominance(parts, lam).holds(1e-9)
        assert dominance(lam, lam_pinched).holds(1e-9)


class TestFan:
    def test_zero_second_term_is_equality(self):
        rng = np.random.default_rng(3)
        a = states.random_hermitian(3, rng)
        *_, check = fan_dominance(a, np.zeros((3, 3)))
        assert check.holds(INEQUALITY_TOL)
        assert matcore.max_abs(np.array(check.margins)) <= 1e-9

    def test_misaligned_diagonals(self):
        combined, lam_sum, check = fan_dominance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert check.holds(INEQUALITY_TOL)
        assert tuple(combined) == pytest.approx((2.0, 0.0))
        assert tuple(lam_sum) == pytest.approx((1.0, 1.0))

    @settings(max_examples=60)
    @given(dim=dims, seed=seeds)
    def test_random_hermitian_pairs(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = states.random_hermitian(dim, rng)
        b = states.random_hermitian(dim, rng)
        *_, check = fan_dominance(a, b)
        assert check.holds(INEQUALITY_TOL), check.margins


class TestHolevo:
    def test_single_outcome_is_equality(self):
        rho = states.random_density(2, np.random.default_rng(6))
        margin, holds = holevo_verdict([1.0], [rho], von_neumann())
        assert holds
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_basis_mixture(self):
        basis = [density_from_pure(basis_state(2, 0)), density_from_pure(basis_state(2, 1))]
        margin, holds = holevo_verdict([0.5, 0.5], basis, von_neumann())
        assert holds
        assert margin == pytest.approx(LN2)

    @settings(max_examples=40)
    @given(dim=dims, size=st.integers(2, 5), seed=seeds)
    def test_random_ensembles_all_functionals(self, dim, size, seed):
        probs, mixed = random_mixture(dim, size, np.random.default_rng(seed))
        for f in builtin_functionals():
            margin, holds = holevo_verdict(probs, mixed, f)
            assert holds, (f.label, margin)

    def test_sentinel_on_smaller_side_passes(self):
        basis = [density_from_pure(basis_state(2, 0)), density_from_pure(basis_state(2, 1))]
        margin, holds = holevo_verdict([0.5, 0.5], basis, log_det())
        assert holds
        assert margin == math.inf


class TestEntropyFromMajorizationConsistency:
    def test_pure_vs_maximally_mixed(self):
        comparable, margin, holds = entropy_order(
            density_from_pure(basis_state(3, 0)), maximally_mixed(3), von_neumann()
        )
        assert comparable and holds
        assert margin == pytest.approx(math.log(3.0))

    def test_equal_states(self):
        rho = states.random_density(2, np.random.default_rng(14))
        comparable, margin, holds = entropy_order(rho, rho, von_neumann())
        assert comparable and holds
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_frozen_scalar_values(self):
        rho1 = DensityMatrix(np.diag([0.6, 0.4]))
        rho2 = DensityMatrix(np.diag([0.5, 0.5]))
        comparable, margin, holds = entropy_order(rho1, rho2, von_neumann())
        assert comparable and holds
        s1 = -(0.6 * math.log(0.6) + 0.4 * math.log(0.4))
        assert margin == pytest.approx(LN2 - s1)
        assert s1 == pytest.approx(0.6730116670092565)

    def test_incomparable_makes_no_claim(self):
        rho1 = DensityMatrix(np.diag([0.6, 0.25, 0.15]))
        rho2 = DensityMatrix(np.diag([0.5, 0.4, 0.1]))
        assert not entropy_order(rho1, rho2, von_neumann())[0]
        assert not entropy_order(rho2, rho1, von_neumann())[0]

    @settings(max_examples=40)
    @given(dim=dims, seed=seeds)
    def test_mixing_chain_orders_entropies(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = states.random_density(dim, rng)
        u = states.haar_unitary(dim, rng)
        lam = validate_stack(rho.mat, "hermitian")
        mu = mixed_toward_uniform(lam, rng.uniform(0.0, 1.0))
        softer = DensityMatrix(u @ np.diag(mu) @ u.conj().T)
        for f in builtin_functionals():
            comparable, margin, holds = entropy_order(rho, softer, f)
            assert comparable
            assert holds, (f.label, margin)


VERDICT_CASES = [
    (0.25, 0.5, 1e-9, 0.25, True),
    (0.5, 0.5, 1e-9, 0.0, True),
    (0.5 + 5e-10, 0.5, 1e-9, -5e-10, True),
    (0.5 + 2e-9, 0.5, 1e-9, -2e-9, False),
    (-math.inf, -1.0, 1e-9, math.inf, True),
    (-1.0, -math.inf, 1e-9, -math.inf, False),
    (-math.inf, -math.inf, 1e-9, 0.0, True),
]


class TestInequalityVerdict:
    @pytest.mark.parametrize("lhs, rhs, tol, margin, holds", VERDICT_CASES)
    def test_margin_and_verdict(self, lhs, rhs, tol, margin, holds):
        got_margin, got_holds = inequality_verdict(lhs, rhs, tol)
        assert got_margin == pytest.approx(margin, rel=1e-6)
        assert got_holds is holds

    def test_stacks_get_the_verdict_of_each_entry(self):
        lhs, rhs, _, _, _ = (np.array(column) for column in zip(*VERDICT_CASES))
        margins, holds = inequality_verdict(lhs, rhs, 1e-9)
        expected = [inequality_verdict(a, b, 1e-9) for a, b in zip(lhs.tolist(), rhs.tolist())]
        assert margins.tolist() == [margin for margin, _ in expected]
        assert holds.tolist() == [verdict for _, verdict in expected]

    def test_holevo_report_is_the_verdict_of_its_two_entropies(self):
        cfg = CampaignConfig("holevo", seed=4, dim=3, trials=6, functionals=("von-neumann", "linear", "renyi:2"))
        rows = run_holevo(cfg).report["rows"]
        assert len(rows) == 18
        for row in rows:
            assert (row["margin"], not row["violation"]) == inequality_verdict(row["lhs"], row["rhs"], cfg.tol)


class TestSpectraAreSolvedOnce:
    def test_holevo_solves_only_the_average(self, solved):
        probs, mixed = random_mixture(3, 3, np.random.default_rng(5))
        solved[0] = 0
        holevo_verdict(probs, mixed, von_neumann())
        assert solved[0] == 1

    def test_consistency_check_solves_nothing(self, solved):
        rho1, rho2 = density_from_pure(basis_state(3, 0)), maximally_mixed(3)
        solved[0] = 0
        comparable, _, holds = entropy_order(rho1, rho2, von_neumann())
        assert solved[0] == 0
        assert comparable and holds

    def test_schur_check_solves_only_the_product(self, solved):
        rng = np.random.default_rng(6)
        rho = states.random_density(4, rng)
        env = gram_from_unit_rows(sampling.pure_from_normals(rng.standard_normal((4, 8)), 4))
        solved[0] = 0
        schur_dominance(rho.spectrum, rho.mat * env)
        assert solved[0] == 1

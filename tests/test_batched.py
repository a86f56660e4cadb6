"""The stacked campaign kernels against one-trial-at-a-time references.

The campaigns ``verify-s-theorems``, ``holevo``, ``majorization`` and
``luders-equiv`` stack their trials and run every map, check and entropy
once per chunk.  Here each campaign is replayed trial by trial through the
public scalar API, and every row must come out exactly equal (``==``, not
approximately).  The stack kernels must also agree bit for bit with the
scalar types on hard inputs (dead branches, rank-deficient spectra, padded
projector families) and raise the scalar types' errors.
"""

import re

import numpy as np
import pytest

from decobs import cli, matcore, processes, sampling, states
from decobs.entropy import (
    NEG_INFINITY,
    SINGULAR_EIGENVALUE,
    entropies_of_spectra,
    entropy_of_spectrum,
    parse_functional,
)
from decobs.errors import NotHermitianError, ValidationError
from decobs.majorization import (
    check_fan,
    check_pinching_double,
    check_schur_majorization,
    dominance,
    entropy_gap,
)
from decobs.states import DensityMatrix, GramMatrix, Outcome, OutcomeEnsemble, ProjectorSet, PureState

FUNCTIONALS = ("von-neumann", "linear", "renyi:0.5", "renyi:2", "log-det", "renyi:0.3")


def _report_row(trial, dim, functional, side, lhs, rhs, margin, trivial, violation):
    keys = ("trial", "dim", "functional", "side", "lhs", "rhs", "margin", "trivial", "violation")
    return dict(zip(keys, (trial, dim, functional, side, lhs, rhs, margin, trivial, violation)))


def _check_row(trial, dim, label, side, lhs, rhs, trivial, tol):
    margin = entropy_gap(rhs, lhs)
    violation = not (lhs <= rhs + tol)
    row = _report_row(trial, dim, label, side, lhs, rhs, margin, trivial, violation)
    if not (trivial is None or trivial or violation):
        row["strict"] = margin > cli.NEAR_TRIVIAL_MARGIN
    return row


def oracle_s_theorems(cfg):
    """verify-s-theorems replayed one trial at a time through the scalar API."""
    functionals = [parse_functional(text) for text in cfg.functionals]
    response_dim = cfg.response_dim or cfg.dim
    rows, consistency = [], 0.0
    for trial in range(cfg.trials):
        rng = sampling.trial_stream(cfg.seed, trial)
        rho = sampling.random_density(cfg.dim, rng)
        probe = sampling.random_probing(cfg.dim, response_dim, rng)
        ensemble = processes.observe(rho, probe)
        averaged = processes.ensemble_average(ensemble)
        decohered = processes.decohere(rho, processes.response_gram(probe))
        consistency = max(consistency, matcore.max_abs(averaged.mat - decohered.mat))
        lam_rho = matcore.hermitian_spectrum(rho.mat)
        lam_dec = matcore.hermitian_spectrum(decohered.mat)
        branches = [(o.probability, matcore.hermitian_spectrum(o.state.mat)) for o in ensemble.live()]
        obs_trivial = all(matcore.max_abs(lam - lam_rho) <= cli.TRIVIALITY_TOL for _, lam in branches)
        dec_trivial = matcore.max_abs(lam_dec - lam_rho) <= cli.TRIVIALITY_TOL
        for f in functionals:
            if f.kind == "log-det" and lam_rho[-1] < cli.SINGULAR_SKIP:
                continue
            s_rho = entropy_of_spectrum(lam_rho, f)
            s_dec = entropy_of_spectrum(lam_dec, f)
            s_expected = 0.0
            for p, lam in branches:
                s_expected += p * entropy_of_spectrum(lam, f)
            rows.append(_check_row(trial, cfg.dim, f.label, "observation", s_expected, s_rho, obs_trivial, cfg.tol))
            rows.append(_check_row(trial, cfg.dim, f.label, "decoherence", s_rho, s_dec, dec_trivial, cfg.tol))
    return rows, consistency


def oracle_holevo(cfg):
    """holevo replayed one trial at a time through the scalar API."""
    functionals = [parse_functional(text) for text in cfg.functionals]
    rows = []
    for trial in range(cfg.trials):
        rng = sampling.trial_stream(cfg.seed, trial)
        size = cfg.ensemble_size or int(rng.integers(2, 6))
        ensemble = sampling.random_ensemble(cfg.dim, size, rng)
        lam_avg = matcore.hermitian_spectrum(processes.ensemble_average(ensemble).mat)
        branches = [(o.probability, matcore.hermitian_spectrum(o.state.mat)) for o in ensemble.live()]
        for f in functionals:
            lhs = 0.0
            for p, lam in branches:
                lhs += p * entropy_of_spectrum(lam, f)
            rhs = entropy_of_spectrum(lam_avg, f)
            rows.append(_check_row(trial, cfg.dim, f.label, "holevo", lhs, rhs, None, cfg.tol))
    return rows


def _s_theorems_grid():
    for dim, trials in ((1, 10), (2, 10), (4, 10), (8, 6), (16, 3), (32, 2)):
        for response_dim in sorted({1, 2, dim, dim + 3}):
            yield dim, trials, response_dim


@pytest.mark.parametrize("dim,trials,response_dim", list(_s_theorems_grid()))
def test_s_theorems_rows_equal_the_scalar_oracle(dim, trials, response_dim):
    cfg = cli.CampaignConfig(
        "verify-s-theorems", seed=dim * 31 + response_dim, dim=dim, trials=trials,
        response_dim=response_dim, functionals=FUNCTIONALS,
    )
    result = cli.run_s_theorems(cfg)
    expected, consistency = oracle_s_theorems(cfg)
    assert result.report["rows"] == expected
    assert result.report["summary"]["consistency_max_residual"] == consistency


@pytest.mark.parametrize("dim", [1, 4, 8, 16])
@pytest.mark.parametrize("ensemble_size", [1, 7, None])
def test_holevo_rows_equal_the_scalar_oracle(dim, ensemble_size):
    cfg = cli.CampaignConfig(
        "holevo", seed=dim + 100 * (ensemble_size or 0), dim=dim, trials=12 if dim < 16 else 4,
        ensemble_size=ensemble_size, functionals=FUNCTIONALS,
    )
    result = cli.run_holevo(cfg)
    assert result.report["rows"] == oracle_holevo(cfg)


def _strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-s-theorems", "--dim", "4", "--trials", "30", "--seed", "3", "--response-dim", "6"],
        ["verify-s-theorems", "--dim", "9", "--trials", "5", "--seed", "4", "--units", "bits"],
        ["holevo", "--dim", "5", "--trials", "25", "--seed", "5"],
        ["holevo", "--dim", "3", "--trials", "25", "--seed", "6", "--ensemble-size", "4", "--units", "bits"],
        ["majorization", "--dim", "5", "--trials", "25", "--seed", "8", "--response-dim", "7"],
        ["luders-equiv", "--dim", "6", "--trials", "25", "--seed", "9"],
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_does_not_depend_on_the_chunk_size(capsys, monkeypatch, argv, fmt):
    takes_entropy = argv[0] not in ("majorization", "luders-equiv")
    args = argv + ["--format", fmt] + sum((["--entropy", f] for f in FUNCTIONALS if takes_entropy), [])
    default_code = cli.main(args)
    default = capsys.readouterr().out
    monkeypatch.setattr(cli, "CHUNK_BYTES", 1)
    assert all(len(chunk) == 1 for chunk in cli.plan_chunks(25, 5, 3))
    single_code = cli.main(args)
    single = capsys.readouterr().out
    assert single_code == default_code == 0
    assert _strip_timestamp(single) == _strip_timestamp(default)


class TestChunkPlanner:
    @pytest.mark.parametrize("slots,dim", [(1, 1), (4, 4), (5, 8), (7, 16), (32, 32), (3, 30)])
    def test_largest_stack_fits_the_budget(self, slots, dim):
        chunks = cli.plan_chunks(97, slots, dim)
        assert [t for chunk in chunks for t in chunk] == list(range(97))
        for chunk in chunks:
            assert len(chunk) * slots * dim * dim * 16 <= cli.CHUNK_BYTES

    def test_dim_32_takes_one_trial_per_chunk(self):
        assert [len(chunk) for chunk in cli.plan_chunks(30, 32, 32)] == [1] * 30

    def test_a_trial_larger_than_the_budget_is_a_chunk_of_its_own(self):
        assert [len(chunk) for chunk in cli.plan_chunks(3, 35, 32)] == [1, 1, 1]

    def test_probe_small_is_one_chunk(self):
        assert cli.plan_chunks(200, 4, 4) == [range(0, 200)]


def _reference_observe(rho, probe):
    """Observation branches as the one-branch-at-a-time formula writes them."""
    populations = rho.diagonal().real
    out = []
    for k in range(probe.shape[1]):
        column = probe[:, k]
        p = float(populations @ (np.abs(column) ** 2))
        out.append((p, rho * np.outer(column, column.conj()) / p if p > states.ZERO_PROBABILITY else None))
    return out


@pytest.mark.parametrize("dim,trials,response_dim", list(_s_theorems_grid()))
def test_observe_and_average_match_the_one_branch_formulas(dim, trials, response_dim):
    rng = sampling.stream(dim * 7 + response_dim)
    for _ in range(trials):
        rho = sampling.random_density(dim, rng)
        probe = sampling.random_probing(dim, response_dim, rng)
        ensemble = processes.observe(rho, probe)
        total = np.zeros((dim, dim), dtype=complex)
        for outcome, (p, state) in zip(ensemble, _reference_observe(rho.mat, probe.mat)):
            assert outcome.probability == p
            assert np.array_equal(outcome.state.mat, state)
            total = total + p * state
        assert np.array_equal(processes.ensemble_average(ensemble).mat, total)


class TestDeadBranch:
    @staticmethod
    def probing_with_zero_column(dim, rng):
        probe = np.zeros((dim, dim + 1), dtype=complex)
        probe[:, :dim] = sampling.draw_probing(dim, dim, rng)
        return probe

    def test_stack_gives_zero_probability_and_no_state(self):
        rng = sampling.stream(11)
        rhos = np.array([sampling.draw_density(3, rng) for _ in range(4)])
        probes = np.array([self.probing_with_zero_column(3, rng) for _ in range(4)])
        probs, branches = processes.observe_stack(rhos, probes)
        assert np.all(probs[:, -1] == 0.0)
        assert np.all(branches[:, -1] == 0.0)
        for rho, probe, p_row, state_row in zip(rhos, probes, probs, branches):
            ensemble = processes.observe(DensityMatrix(rho), states.ProbingMatrix(probe))
            assert ensemble.outcomes[-1] == Outcome(0.0, None)
            for outcome, (p, state), p_stack, state_stack in zip(
                ensemble.outcomes[:-1], _reference_observe(rho, probe), p_row, state_row
            ):
                assert outcome.probability == p == p_stack
                assert np.array_equal(outcome.state.mat, state)
                assert np.array_equal(state_stack, state)

    def test_campaign_skips_the_dead_branch(self, monkeypatch):
        transform = sampling.probing_from_normals

        def with_zero_column(raw, n, m):
            # the campaign and the oracle's scalar draws both go through this transform
            live = transform(raw[..., : 2 * n * (m - 1)], n, m - 1)
            return np.concatenate([live, np.zeros(live.shape[:-1] + (1,))], axis=-1)

        monkeypatch.setattr(sampling, "probing_from_normals", with_zero_column)
        cfg = cli.CampaignConfig("verify-s-theorems", seed=2, dim=4, trials=8, response_dim=5, functionals=FUNCTIONALS)
        result = cli.run_s_theorems(cfg)
        assert result.exit_code == 0
        expected, _ = oracle_s_theorems(cfg)
        assert result.report["rows"] == expected


def _reference_entropy(lam, functional):
    """The entropy formulas on one clamped spectrum, as written out per functional."""
    lam = np.clip(np.asarray(lam, dtype=float), 0.0, 1.0)
    lam = np.where(lam <= SINGULAR_EIGENVALUE, 0.0, lam)
    if functional.kind == "von-neumann":
        positive = lam[lam > 0.0]
        return float(-(positive * np.log(positive)).sum() + 0.0)
    if functional.kind == "linear":
        return float((lam - lam**2).sum())
    if functional.kind == "renyi":
        total = float((lam**functional.alpha).sum())
        return total if functional.alpha < 1.0 else -total
    if float(lam.min()) <= SINGULAR_EIGENVALUE:
        return NEG_INFINITY
    return float(np.log(lam).sum())


def _rank_deficient_spectra(dim, count, rng):
    """Descending spectra of pure and low-rank states, with exact and rounding-level zeros."""
    spectra = []
    for index in range(count):
        rank = 1 + index % dim
        g = sampling.complex_gaussian(rng, dim, rank)
        mat = g @ g.conj().T
        lam = matcore.hermitian_spectrum(mat / np.trace(mat).real)
        if index % 3 == 0:
            lam[rank:] = 0.0
        spectra.append(lam)
    return np.array(spectra)


@pytest.mark.parametrize("dim", [8, 13, 32])
def test_entropy_kernel_on_rank_deficient_spectra_is_bit_identical(dim):
    spectra = _rank_deficient_spectra(dim, 4 * dim, sampling.stream(dim))
    functionals = [parse_functional(text) for text in FUNCTIONALS]
    table = entropies_of_spectra(spectra, functionals)
    for f, row in zip(functionals, table):
        expected = [_reference_entropy(lam, f) for lam in spectra]
        assert row.tolist() == [entropy_of_spectrum(lam, f) for lam in spectra] == expected


def test_sequential_sum_adds_left_to_right():
    rng = sampling.stream(5)
    values = rng.standard_normal((40, 9)) * 10.0 ** rng.integers(-8, 8, size=(40, 9))
    values[3] = [-0.0] * 9
    expected = []
    for row in values:
        total = 0.0
        for x in row:
            total += x
        expected.append(total)
    got = matcore.sequential_sum(values)
    assert [np.copysign(1.0, x) for x in got] == [np.copysign(1.0, x) for x in expected]
    assert got.tolist() == expected


class TestStackErrorsMatchScalarTypes:
    @staticmethod
    def error_of(build):
        with pytest.raises(ValidationError) as err:
            build()
        return type(err.value), err.value.invariant, err.value.residual, str(err.value)

    @pytest.mark.parametrize(
        "bad,invariant",
        [
            (np.diag([1.5, -0.5, 0.0]).astype(complex), "density-psd"),
            (np.array([[0.5, 1e-3, 0], [0, 0.25, 0], [0, 0, 0.25]], dtype=complex), "density-hermitian"),
            (np.diag([0.5, 0.5, 0.5]).astype(complex), "density-unit-trace"),
        ],
    )
    def test_density(self, bad, invariant):
        rng = sampling.stream(1)
        stack = np.array([sampling.draw_density(3, rng) for _ in range(9)])
        stack[4] = bad
        scalar = self.error_of(lambda: DensityMatrix(bad))
        assert scalar[1] == invariant
        assert self.error_of(lambda: states.validate_stack(stack, "density")) == scalar
        assert self.error_of(lambda: states.validate_stack(stack.reshape(3, 3, 3, 3), "density")) == scalar

    def test_gram_unit_diagonal(self):
        rng = sampling.stream(2)
        stack = np.array([processes.response_gram_stack(sampling.draw_probing(4, 3, rng)) for _ in range(7)])
        bad = stack[3].copy()
        bad[2, 2] = 1.0 + 1e-6
        stack[3] = bad
        scalar = self.error_of(lambda: GramMatrix(bad))
        assert scalar[1] == "gram-unit-diagonal"
        assert self.error_of(lambda: states.validate_stack(stack, "gram")) == scalar

    def test_probabilities_sum_to_one(self):
        rng = sampling.stream(3)
        probs = np.array([sampling.random_simplex(4, rng) for _ in range(6)])
        probs[2, 1] += 1e-7
        state = DensityMatrix(np.eye(2) / 2)
        scalar = self.error_of(lambda: OutcomeEnsemble(tuple(Outcome(float(p), state) for p in probs[2])))
        assert scalar[1] == "probabilities-sum-to-one"
        assert self.error_of(lambda: states.clean_probabilities(probs)) == scalar

    def test_campaign_exits_2_with_the_scalar_error(self, capsys, monkeypatch):
        bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
        transform = sampling.density_from_normals

        def one_bad_draw(raw, n):
            # the ten trials are one chunk: trial 4's state is the fifth drawn
            mats = transform(raw, n)
            mats[4] = bad
            return mats

        monkeypatch.setattr(sampling, "density_from_normals", one_bad_draw)
        code = cli.main(["verify-s-theorems", "--dim", "3", "--trials", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {self.error_of(lambda: DensityMatrix(bad))[3]}\n"


def oracle_majorization(cfg):
    """majorization replayed one trial at a time through the scalar API."""
    dim = cfg.dim
    response_dim = cfg.response_dim or dim
    rows = []
    for trial in range(cfg.trials):
        rng = sampling.trial_stream(cfg.seed, trial)
        rho = sampling.random_density(dim, rng)
        schur = check_schur_majorization(rho, sampling.random_gram(dim, response_dim, rng), cfg.tol, trial)
        pinch_input = sampling.random_density(dim, rng).mat
        partition = sampling.random_projector_partition(dim, sampling.random_block_sizes(dim, rng), rng)
        pinching = check_pinching_double(pinch_input, partition, cfg.tol, trial)
        a = sampling.random_hermitian(dim, rng)
        fan = check_fan(a, sampling.random_hermitian(dim, rng), cfg.tol, trial)
        sides = ("schur", "pinching-upper", "pinching-lower", "fan")
        for side, check in zip(sides, schur.dominance + pinching.dominance + fan.dominance):
            rows.append(
                _report_row(
                    trial, dim, "", side, check.dominated_prefix, check.dominator_prefix,
                    check.worst_margin, None, not check.holds(cfg.tol),
                )
            )
    return rows


def oracle_luders(cfg):
    """luders-equiv replayed one trial at a time through the scalar API."""
    rows = []
    for trial in range(cfg.trials):
        rng = sampling.trial_stream(cfg.seed, trial)
        rho = sampling.random_density(cfg.dim, rng)
        partition = states.diagonal_projector_partition(sampling.random_block_sizes(cfg.dim, rng))
        pinched = processes.luders(rho, partition)
        schur_form = processes.decohere(rho, states.gram_from_projectors(partition))
        residual = matcore.max_abs(pinched.mat - schur_form.mat)
        rows.append(
            _report_row(
                trial, cfg.dim, "", "luders-equivalence", residual, cli.CONSISTENCY_TOL,
                cli.CONSISTENCY_TOL - residual, None, residual > cli.CONSISTENCY_TOL,
            )
        )
    return rows


def _majorization_grid():
    for dim, trials in ((1, 12), (2, 12), (3, 12), (5, 10), (8, 8), (16, 5)):
        for response_dim in sorted({1, dim, dim + 3}):
            yield dim, trials, response_dim


@pytest.mark.parametrize("tol", [1e-9, 1e-30])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dim,trials,response_dim", list(_majorization_grid()))
def test_majorization_rows_equal_the_scalar_oracle(dim, trials, response_dim, seed, tol):
    cfg = cli.CampaignConfig(
        "majorization", seed=seed, dim=dim, trials=trials, response_dim=response_dim, tol=tol
    )
    result = cli.run_majorization(cfg)
    expected = oracle_majorization(cfg)
    assert result.report["rows"] == expected
    assert result.exit_code == int(any(row["violation"] for row in expected))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16])
def test_luders_rows_equal_the_scalar_oracle(dim, seed):
    cfg = cli.CampaignConfig("luders-equiv", seed=seed, dim=dim, trials=12 if dim < 16 else 6)
    assert cli.run_luders(cfg).report["rows"] == oracle_luders(cfg)


def _padded_family(partition, slots):
    family = np.zeros((slots, partition.dim, partition.dim), dtype=complex)
    family[: len(partition)] = partition.projectors
    return family


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_pinch_matches_the_one_projector_formula(dim):
    rng = sampling.stream(dim + 40)
    partitions, mats = [], []
    for _ in range(6):
        mats.append(sampling.random_density(dim, rng).mat)
        partitions.append(sampling.random_projector_partition(dim, sampling.random_block_sizes(dim, rng), rng))
    families = np.array([_padded_family(partition, dim) for partition in partitions])
    pieces, totals = processes.pinch(families, np.array(mats))
    for partition, mat, piece_row, total_stack in zip(partitions, mats, pieces, totals):
        total = np.zeros((dim, dim), dtype=complex)
        for p, piece in zip(partition, piece_row):
            assert np.array_equal(piece, p @ mat @ p)
            total = total + p @ mat @ p
        assert not piece_row[len(partition) :].any()
        assert np.array_equal(total_stack, total)
        assert np.array_equal(processes.luders(DensityMatrix(mat), partition).mat, total)


def test_dominance_of_stacks_reads_each_pair_as_alone():
    rng = sampling.stream(4)
    lam = rng.standard_normal((5, 3, 6))
    mu = rng.standard_normal((5, 3, 4))
    lam[0, 0] = 0.25  # ties everywhere
    mu[1, 1] = lam[1, 1, :4]
    stacked = dominance(lam, mu)
    for index in np.ndindex(5, 3):
        single = dominance(lam[index], mu[index])
        assert np.array_equal(stacked.margins[index], single.margins)
        assert stacked.worst_margin[index] == single.worst_margin
        assert stacked.dominator_prefix[index] == single.dominator_prefix
        assert stacked.dominated_prefix[index] == single.dominated_prefix
        assert stacked.sum_residual[index] == single.sum_residual
        for tol in (1e-9, 10.0):
            assert stacked.holds(tol)[index] == single.holds(tol)


def test_stacked_samplers_match_the_one_matrix_formulas():
    rng = sampling.stream(12)
    ginibre = np.array([sampling.draw_ginibre(5, rng) for _ in range(7)])
    hermitian = np.array([sampling.draw_hermitian(5, rng) for _ in range(7)])
    responses = np.array([sampling.draw_responses(5, 11, rng) for _ in range(7)])
    bases = sampling.haar_from_ginibre(ginibre)
    rescaled = sampling.unit_spectral_radius(hermitian)
    grams = states.gram_from_unit_rows(responses)
    for i in range(7):
        q, r = np.linalg.qr(ginibre[i])
        assert np.array_equal(bases[i], q * (r.diagonal() / np.abs(r.diagonal())))
        assert np.array_equal(rescaled[i], hermitian[i] / np.max(np.abs(np.linalg.eigvalsh(hermitian[i]))))
        # each row renormalized by its own 1-D norm
        rows = np.array([v / np.linalg.norm(v) for v in responses[i]])
        assert np.array_equal(grams[i], rows @ rows.conj().T)


class TestStackedChecksRaiseTheScalarErrors:
    error_of = staticmethod(TestStackErrorsMatchScalarTypes.error_of)

    BAD_FAMILIES = {
        "projector-hermitian": [
            np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]) + 1e-3 * np.eye(3, k=1), np.diag([0, 0, 1.0]),
        ],
        "projector-idempotent": [np.diag([1.0, 0, 0]), np.diag([0, 1.0 + 1e-6, 0]), np.diag([0, 0, 1.0])],
        "projectors-orthogonal": [np.diag([1.0, 1.0, 0]), np.diag([0, 1.0, 1.0])],
        "projectors-complete": [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])],
        "finite-entries": [np.diag([1.0, 0, 0]), np.diag([0, np.nan, 1.0])],
    }

    @staticmethod
    def families(count, rng):
        return np.array(
            [
                _padded_family(sampling.random_projector_partition(3, sampling.random_block_sizes(3, rng), rng), 3)
                for _ in range(count)
            ]
        )

    @pytest.mark.parametrize("invariant", list(BAD_FAMILIES))
    def test_projector_families(self, invariant):
        bad = tuple(np.asarray(p, dtype=complex) for p in self.BAD_FAMILIES[invariant])
        scalar = self.error_of(lambda: ProjectorSet(bad))
        assert scalar[1] == invariant
        stack = self.families(9, sampling.stream(21))
        stack[4] = 0.0
        stack[4, : len(bad)] = bad
        assert self.error_of(lambda: states.validate_projector_stack(stack)) == scalar
        assert self.error_of(lambda: states.validate_projector_stack(stack.reshape(3, 3, 3, 3, 3))) == scalar

    def test_projector_family_past_a_block_seam(self):
        stack = self.families(700, sampling.stream(22))
        assert stack[:1].nbytes * 700 > 2 * states._BLOCK_BYTES
        states.validate_projector_stack(stack)
        bad = tuple(np.asarray(p, dtype=complex) for p in self.BAD_FAMILIES["projectors-complete"])
        stack[650] = 0.0
        stack[650, :2] = bad
        stack[660, 0, 0, 1] = 1e-3
        assert self.error_of(lambda: states.validate_projector_stack(stack)) == self.error_of(lambda: ProjectorSet(bad))

    def test_non_hermitian_matrix(self):
        rng = sampling.stream(23)
        stack = np.array([sampling.draw_hermitian(3, rng) for _ in range(9)])
        bad = stack[4].copy()
        bad[0, 2] += 1e-6
        stack[4] = bad
        stack[6, 1, 0] += 1.0
        scalar = self.error_of(lambda: matcore.hermitian_spectrum(bad))
        assert scalar[0] is NotHermitianError
        assert self.error_of(lambda: matcore.hermitian_spectrum(stack)) == scalar
        assert self.error_of(lambda: matcore.hermitian_spectrum(stack.reshape(3, 3, 3, 3))) == scalar

    def test_response_vector_off_the_unit_sphere(self):
        rng = sampling.stream(24)
        rows = np.array([sampling.draw_responses(4, 5, rng) for _ in range(6)])
        rows[3, 2] *= 1.0 + 1e-6
        scalar = self.error_of(lambda: PureState(rows[3, 2]))
        assert scalar[1] == "pure-unit-norm"
        assert self.error_of(lambda: states.gram_from_unit_rows(rows)) == scalar

    def test_non_diagonal_projector(self):
        partition = sampling.random_projector_partition(3, [1, 2], sampling.stream(25))
        stack = np.array([states.block_projectors(sizes, 3) for sizes in ([3], [1, 2], [1, 1, 1], [2, 1])])
        stack[2] = _padded_family(partition, 3)
        scalar = self.error_of(lambda: states.gram_from_projectors(partition))
        assert scalar[1] == "projector-diagonal"
        assert self.error_of(lambda: states.gram_from_projector_stack(stack)) == scalar

    @pytest.mark.parametrize("command", ["majorization", "luders-equiv"])
    def test_campaign_exits_2_with_the_scalar_error(self, capsys, monkeypatch, command):
        bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
        transform = sampling.density_from_normals
        calls = []
        # the ten trials are one chunk; the sixth state drawn is trial 2's pinching
        # state (the second transform of majorization) or trial 5's state
        call, trial = {"majorization": (2, 2), "luders-equiv": (1, 5)}[command]

        def one_bad_draw(raw, n):
            calls.append(n)
            mats = transform(raw, n)
            if len(calls) == call:
                mats[trial] = bad
            return mats

        monkeypatch.setattr(sampling, "density_from_normals", one_bad_draw)
        code = cli.main([command, "--dim", "3", "--trials", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {self.error_of(lambda: DensityMatrix(bad))[3]}\n"

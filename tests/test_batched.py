"""The stacked campaign kernels against one-trial-at-a-time references.

The campaigns ``verify-s-theorems`` and ``holevo`` stack their trials and run
every map, check and entropy once per chunk.  Here each campaign is replayed
trial by trial through the public scalar API, and every row must come out
exactly equal (``==``, not approximately).  The stack kernels must also
agree bit for bit with the scalar types on hard inputs (dead branches,
rank-deficient spectra) and raise the scalar types' errors.
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
from decobs.errors import ValidationError
from decobs.majorization import entropy_gap
from decobs.states import DensityMatrix, GramMatrix, Outcome, OutcomeEnsemble

FUNCTIONALS = ("von-neumann", "linear", "renyi:0.5", "renyi:2", "log-det", "renyi:0.3")


def _row_key(row):
    return (row.trial, row.functional, row.side, row.lhs, row.rhs, row.margin, row.trivial, row.strict)


def _check_row(trial, label, side, lhs, rhs, trivial, tol):
    margin = entropy_gap(rhs, lhs)
    violation = not (lhs <= rhs + tol)
    strict = None if trivial is None or trivial or violation else margin > cli.NEAR_TRIVIAL_MARGIN
    return (trial, label, side, lhs, rhs, margin, trivial, strict)


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
            rows.append(_check_row(trial, f.label, "observation", s_expected, s_rho, obs_trivial, cfg.tol))
            rows.append(_check_row(trial, f.label, "decoherence", s_rho, s_dec, dec_trivial, cfg.tol))
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
            rows.append(_check_row(trial, f.label, "holevo", lhs, entropy_of_spectrum(lam_avg, f), None, cfg.tol))
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
    assert [_row_key(row) for row in result.rows] == expected
    assert result.report["summary"]["consistency_max_residual"] == consistency


@pytest.mark.parametrize("dim", [1, 4, 8, 16])
@pytest.mark.parametrize("ensemble_size", [1, 7, None])
def test_holevo_rows_equal_the_scalar_oracle(dim, ensemble_size):
    cfg = cli.CampaignConfig(
        "holevo", seed=dim + 100 * (ensemble_size or 0), dim=dim, trials=12 if dim < 16 else 4,
        ensemble_size=ensemble_size, functionals=FUNCTIONALS,
    )
    result = cli.run_holevo(cfg)
    assert [_row_key(row) for row in result.rows] == oracle_holevo(cfg)


def _strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-s-theorems", "--dim", "4", "--trials", "30", "--seed", "3", "--response-dim", "6"],
        ["verify-s-theorems", "--dim", "9", "--trials", "5", "--seed", "4", "--units", "bits"],
        ["holevo", "--dim", "5", "--trials", "25", "--seed", "5"],
        ["holevo", "--dim", "3", "--trials", "25", "--seed", "6", "--ensemble-size", "4", "--units", "bits"],
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_does_not_depend_on_the_chunk_size(capsys, monkeypatch, argv, fmt):
    args = argv + ["--format", fmt] + sum((["--entropy", f] for f in FUNCTIONALS), [])
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
        draw = sampling.draw_probing

        def with_zero_column(n, m, rng):
            return np.hstack([draw(n, m - 1, rng), np.zeros((n, 1))])

        monkeypatch.setattr(sampling, "draw_probing", with_zero_column)
        cfg = cli.CampaignConfig("verify-s-theorems", seed=2, dim=4, trials=8, response_dim=5, functionals=FUNCTIONALS)
        result = cli.run_s_theorems(cfg)
        assert result.exit_code == 0
        expected, _ = oracle_s_theorems(cfg)
        assert [_row_key(row) for row in result.rows] == expected


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
        draw = sampling.draw_density
        calls = []

        def one_bad_draw(n, rng):
            calls.append(n)
            return bad if len(calls) == 5 else draw(n, rng)

        monkeypatch.setattr(sampling, "draw_density", one_bad_draw)
        code = cli.main(["verify-s-theorems", "--dim", "3", "--trials", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {self.error_of(lambda: DensityMatrix(bad))[3]}\n"

"""Acceptance suite: every criterion at full scale, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is sized to finish in well under five minutes.
"""

import json
import math
import re
import time

import numpy as np

from decobs import matcore, povm, sampling, states
from decobs.campaigns.s_theorems import evaluate_s_theorems
from decobs.cli import CampaignConfig, main, run_holevo, run_majorization, run_s_theorems
from decobs.entropy import (
    builtin_functionals, entropies_of_spectra, entropy, expected_entropy_stack, linear, von_neumann,
)
from decobs.povm import apply_povm, counterexample_1, counterexample_2, is_purity_preserving
from decobs.majorization import block_projectors, pinch, validate_projector_stack
from decobs.stacks import average_stack, response_gram_stack, validate_stack
from decobs.states import DensityMatrix, density_from_pure

LN2 = math.log(2.0)
FULL_FUNCTIONALS = ("von-neumann", "linear", "renyi:0.5", "renyi:2", "log-det")


def report_pass(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {message}")


def expected_after(probs, spectra, functional) -> float:
    """The expected entropy of a measurement's live branches, from what apply_povm returns."""
    return float(expected_entropy_stack(probs[probs > 0], entropies_of_spectra(spectra, (functional,))[0]))


def branch_average(probs, branches) -> DensityMatrix:
    """The probability-weighted average of a measurement's live branch states."""
    live = probs > 0
    return DensityMatrix(average_stack(probs[live], branches[live]))


def test_criterion_01_s_theorem_campaign():
    """Dims {2, 3, 4, 8}, 500 trials each, five functionals, slack 1e-9."""
    started = time.monotonic()
    total_rows = 0
    for dim in (2, 3, 4, 8):
        cfg = CampaignConfig(
            command="verify-s-theorems",
            seed=101,
            dim=dim,
            trials=500,
            functionals=FULL_FUNCTIONALS,
            tol=1e-9,
        )
        result = run_s_theorems(cfg)
        assert result.exit_code == 0, result.report["summary"]
        assert result.report["summary"]["violations"] == 0
        total_rows += result.report["summary"]["rows"]
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0
    report_pass(1, f"{total_rows} inequality rows, zero violations, {elapsed:.1f}s")


def test_criterion_02_counterexample_1_exact():
    """Branch data exact to 1e-12; entropy 0 -> ln 2; left side violated; not purity preserving."""
    measurement, initial = counterexample_1()
    probs, branches, spectra = apply_povm(initial, measurement)
    assert max(abs(p - e) for p, e in zip(probs.tolist(), [0.5, 0.5, 0.0, 0.0])) <= 1e-12
    for state in branches[probs > 0]:
        assert matcore.max_abs(state - np.eye(2) / 2.0) <= 1e-12
    before = entropy(initial, von_neumann())
    after = expected_after(probs, spectra, von_neumann())
    assert abs(before) <= 1e-12
    assert abs(after - LN2) <= 1e-12
    assert after > before + 1e-9, "left (observation) inequality must be violated"
    assert before <= entropy(branch_average(probs, branches), von_neumann()) + 1e-9
    assert not is_purity_preserving(measurement)
    report_pass(2, "probabilities (1/2, 1/2, 0, 0), branches I/2, entropy 0 -> ln 2, not purity preserving")


def test_criterion_03_counterexample_2_exact():
    """Branch data exact to 1e-12; entropy ln 2 -> 0; right side violated; purity preserving."""
    measurement, initial = counterexample_2()
    probs, branches, spectra = apply_povm(initial, measurement)
    assert max(abs(p - 0.5) for p in probs.tolist()) <= 1e-12
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    for state in branches[probs > 0]:
        assert matcore.max_abs(state - ket0) <= 1e-12
    before = entropy(initial, von_neumann())
    after_average = entropy(branch_average(probs, branches), von_neumann())
    assert abs(before - LN2) <= 1e-12
    assert abs(after_average) <= 1e-12
    assert after_average < before - 1e-9, "right (decoherence) inequality must be violated"
    assert expected_after(probs, spectra, von_neumann()) <= before + 1e-9
    assert is_purity_preserving(measurement)
    report_pass(3, "probabilities (1/2, 1/2), branches |0><0|, entropy ln 2 -> 0, purity preserving")


def test_criterion_04_majorization_campaign():
    """>= 500 trials per dominance theorem across dims 2-8, slack 1e-9."""
    per_theorem = 0
    for dim in range(2, 9):
        cfg = CampaignConfig(command="majorization", seed=104, dim=dim, trials=72, tol=1e-9)
        result = run_majorization(cfg)
        assert result.exit_code == 0, result.report["summary"]
        per_theorem += cfg.trials
    assert per_theorem >= 500
    report_pass(4, f"{per_theorem} trials per theorem (schur, pinching both sides, spectrum sums), zero violations")


def test_criterion_05_consistency_identity():
    """Branch average equals the Schur form with the row Gram matrix, to 1e-12."""
    checked = 0
    worst = 0.0
    cfg = CampaignConfig(command="verify-s-theorems")
    for dim in range(2, 9):
        rhos, probes = [], []
        for trial in range(72):
            rng = sampling.trial_stream(105 + dim, trial)
            rhos.append(states.random_density(dim, rng).mat)
            probes.append(sampling.probing_from_normals(rng.standard_normal(2 * dim * dim), dim, dim))
        # the campaign's evaluator returns the largest residual |average - Schur form| of its trials
        _, _, residual = evaluate_s_theorems(cfg, range(len(rhos)), (np.array(rhos), np.array(probes)))
        worst = max(worst, residual)
        checked += len(rhos)
    assert checked >= 500
    assert worst <= 1e-12
    report_pass(5, f"{checked} random (state, probing) pairs, max residual {worst:.2e}")


def test_criterion_06_luders_equivalence():
    """Pinching equals the block-overlap Schur form on random diagonal partitions, to 1e-12.

    The Lüders measurement by a diagonal partition is the probing whose
    rows are block indicators, so its block Schur form is rho times that
    probing's Gram matrix.  Trial t draws its state's normals, then its block
    sizes, from stream (106, t).
    """
    total, worst = 0, 0.0
    for dim in range(2, 9):
        raw = np.empty((72, 2 * dim * dim))
        partitions = []
        for i, rng in sampling.trial_streams(106, range(72)):
            rng.standard_normal(out=raw[i])
            partitions.append(sampling.random_block_sizes(dim, rng))
        rho = sampling.density_from_normals(raw, dim)
        projectors = block_projectors(partitions, dim, dim)
        validate_stack(rho, "density")
        validate_projector_stack(projectors)
        _, pinched = pinch(projectors, rho)
        validate_stack(pinched, "density")
        # row i of the indicator probing is the indicator of the block that holds i
        gram = response_gram_stack(projectors.diagonal(axis1=-2, axis2=-1).swapaxes(-1, -2))
        validate_stack(gram, "gram")
        schur_form = rho * gram
        validate_stack(schur_form, "density")
        worst = max(worst, abs(pinched - schur_form).max())
        total += len(rho)
    assert total >= 500
    assert worst <= 1e-12
    report_pass(6, f"{total} random diagonal partitions, all within 1e-12")


def test_criterion_07_holevo_campaign():
    """>= 500 random ensembles (sizes 2-5, dims 2-8), all functionals, slack 1e-9."""
    total = 0
    for dim in range(2, 9):
        cfg = CampaignConfig(
            command="holevo", seed=107, dim=dim, trials=72, functionals=FULL_FUNCTIONALS, tol=1e-9
        )
        result = run_holevo(cfg)
        assert result.exit_code == 0, result.report["summary"]
        total += cfg.trials
    assert total >= 500
    report_pass(7, f"{total} random ensembles, all functionals, zero violations")


def test_criterion_08_pppovm_purity_and_left_inequality():
    """100 random PPPOVMs x 20 pure inputs stay pure; left inequality on 500 mixed inputs."""
    functionals = builtin_functionals()
    for trial in range(100):
        rng = sampling.trial_stream(108, trial)
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        measurement = povm.random_pppovm(n, d, rng)
        assert is_purity_preserving(measurement)
        for _ in range(20):
            rho = density_from_pure(states.random_pure(n, rng))
            _, _, spectra = apply_povm(rho, measurement)
            assert (entropies_of_spectra(spectra, (linear(),))[0] <= 1e-9).all()

    for trial in range(500):
        rng = sampling.trial_stream(208, trial)
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        measurement = povm.random_pppovm(n, d, rng)
        rho = states.random_density(n, rng)
        probs, _, spectra = apply_povm(rho, measurement)
        for functional in functionals:
            assert expected_after(probs, spectra, functional) <= entropy(rho, functional) + 1e-9
    report_pass(8, "2000 pure-input branches pure to 1e-9; observation inequality held on 500 mixed inputs")


def test_criterion_09_strictness_spot_checks():
    """Manifestly nontrivial inputs give strict margins above 1e-6 on both sides."""
    labels = [functional.label for functional in builtin_functionals()]
    cfg = CampaignConfig(command="verify-s-theorems", functionals=tuple(labels))

    def margins(rho, side):
        """Each functional's margin on one side of the campaign's rows for rho under the identity probing."""
        # the identity probing's row Gram matrix is the identity overlap
        columns, skipped, _ = evaluate_s_theorems(cfg, range(1), (rho.mat[None], np.eye(rho.dim)[None]))
        chosen = columns["side"] == side
        assert skipped == 0 and columns["functional"][chosen].tolist() == labels
        return (columns["rhs"] - columns["lhs"])[chosen].tolist()

    # decoherence side: identity overlap on states with large coherences
    coherent_states = [
        DensityMatrix(np.array([[0.6, 0.2], [0.2, 0.4]])),
        DensityMatrix(np.array([[0.5, 0.15 + 0.1j], [0.15 - 0.1j, 0.5]])),
        DensityMatrix(0.8 * np.full((3, 3), 1.0 / 3.0) + 0.2 * np.eye(3) / 3.0),
    ]
    for rho in coherent_states:
        assert np.min(np.abs(rho.mat - np.diag(rho.mat.diagonal()) + np.eye(rho.dim))) >= 0.1
        for label, margin in zip(labels, margins(rho, "decoherence")):
            assert margin > 1e-6, (label, margin)

    # observation side: identity probing on mixed nondegenerate states
    mixed_states = [
        DensityMatrix(np.array([[0.6, 0.2], [0.2, 0.4]])),
        DensityMatrix(np.diag([0.5, 0.3, 0.2])),
        DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1])),
    ]
    for rho in mixed_states:
        lam = validate_stack(rho.mat, "hermitian")
        assert np.min(np.abs(np.diff(lam))) > 1e-3, "curated states must be nondegenerate"
        for label, margin in zip(labels, margins(rho, "observation")):
            assert margin > 1e-6, (label, margin)
    report_pass(9, "both inequalities strict (> 1e-6) on the curated nontrivial set, all functionals")


def test_criterion_10_determinism(capsys):
    """Identical flags and seed reproduce reports byte for byte (timestamp aside)."""

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    json_argv = ["verify-s-theorems", "--dim", "3", "--trials", "25", "--seed", "110",
                 "--entropy", "von-neumann", "--entropy", "log-det"]
    first = run(json_argv)
    second = run(json_argv)
    stripped = [re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text) for text in (first, second)]
    assert stripped[0] == stripped[1]
    timestamps = [json.loads(text)["timestamp"] for text in (first, second)]
    assert all(isinstance(t, str) for t in timestamps)

    csv_argv = ["majorization", "--dim", "4", "--trials", "25", "--seed", "110", "--format", "csv"]
    assert run(csv_argv) == run(csv_argv)
    report_pass(10, "JSON (timestamp excluded) and CSV reports byte-identical across reruns")

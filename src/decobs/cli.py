"""Command-line harness for randomized verification campaigns.

Subcommands
-----------
verify-s-theorems
    Both entropy inequalities on random states and probings: the expected
    branch entropy after observation never exceeds the initial entropy, and
    the initial entropy never exceeds the entropy after decoherence.
majorization
    Spectral dominance campaigns: the Schur-product dominance, the two-sided
    pinching dominance, and the spectrum-sum dominance for Hermitian pairs.
counterexample
    Reproduce one of the two fixed measurements that break an inequality
    (1 breaks observation, 2 breaks decoherence) and check every reported
    value exactly.
holevo
    Average branch entropy never exceeds the entropy of the average state.
luders-equiv
    Pinching over a diagonal projector partition equals the Schur form with
    the block overlap matrix, to 1e-12.
povm-classify
    Structural purity-preservation classification of a measurement JSON file.

Reports stream to stdout as JSON (default) or CSV margin tables; errors go
to stderr.  Exit code 0 means no hard violation, 1 means at least one, and 2
signals usage or input errors.  Rerunning with identical flags and seed
reproduces the report byte for byte (timestamp field aside).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import matcore, processes, sampling, serialize
from .entropy import (
    entropies_of_spectra,
    entropy,
    expected_entropy,
    expected_entropy_stack,
    parse_functional,
    to_bits,
    von_neumann,
)
from .errors import ValidationError
from .majorization import (
    DEFAULT_MAJORIZATION_TOL,
    fan_dominance,
    inequality_verdict,
    pinching_dominance,
    schur_dominance,
)
from .povm import ancilla_factors, apply_povm, counterexample_1, counterexample_2
from .states import (
    ZERO_PROBABILITY,
    block_projectors,
    clean_probabilities,
    gram_from_projector_stack,
    gram_from_unit_rows,
    validate_probing_stack,
    validate_projector_stack,
    validate_stack,
)

#: Slack for hard inequality assertions (the --tol default).
HARD_TOL = DEFAULT_MAJORIZATION_TOL

#: Max-norm bound for exact-identity checks (averaging vs decoherence,
#: pinching vs block Schur form, counterexample regressions).
CONSISTENCY_TOL = 1e-12

#: Componentwise spectrum tolerance used by the triviality flags.
TRIVIALITY_TOL = processes.DEFAULT_TRIVIALITY_TOL

#: Nontrivial trials with margins at or below this are counted as
#: near-trivial instead of being held to strictness.
NEAR_TRIVIAL_MARGIN = 1e-7

#: log-det campaigns skip states whose smallest eigenvalue is below this.
SINGULAR_SKIP = 1e-12

#: Largest stacked array, in bytes, that a campaign builds at once.  At dim 4
#: a whole 200-trial campaign fits in one chunk; at dim 32 with 32 branches
#: each trial is a chunk of its own, which keeps peak memory at the looped
#: level.
CHUNK_BYTES = 512 * 1024

#: Random mixtures in the holevo campaign have 2 to this many branches.
_MAX_MIXTURE_SIZE = 5

#: A projector family has dim slots, and the families and a second stack of
#: their size (the pinched pieces, or a product's temporaries) are alive at
#: once, so the chunk planner counts twice the slots of a family.
_FAMILY_SLOTS = 2


@dataclass(frozen=True)
class CampaignConfig:
    command: str
    seed: int = 0
    dim: int = 2
    trials: int = 100
    response_dim: int | None = None
    functionals: tuple[str, ...] = ("von-neumann",)
    tol: float = HARD_TOL
    fmt: str = "json"
    units: str = "nats"
    ensemble_size: int | None = None
    which: int | None = None
    povm_file: str | None = None

    def __post_init__(self):
        """Reject a config no campaign can run, with the message the CLI prints."""
        labels = [parse_functional(text).label for text in self.functionals]
        for i, label in enumerate(labels):
            # rows are told apart by label alone
            if label in labels[:i]:
                raise ValueError(f"duplicate entropy functional {label!r}")
        if self.dim < 1:
            raise ValueError("--dim must be >= 1")
        if self.trials < 1:
            raise ValueError("--trials must be >= 1")
        if self.response_dim is not None and self.response_dim < 1:
            raise ValueError("--response-dim must be >= 1")
        if self.ensemble_size is not None and self.ensemble_size < 1:
            raise ValueError("--ensemble-size must be >= 1")
        # inf would pass every check vacuously and nan would fail every one
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("--tol must be positive and finite")
        if self.command == "counterexample" and self.which not in (1, 2):
            raise ValueError("--which must be 1 or 2")
        if self.units not in ("nats", "bits"):
            raise ValueError("--units must be nats or bits")


@dataclass
class Row:
    """One (trial, functional, inequality-side) margin record, in nats."""

    trial: int
    dim: int
    functional: str
    side: str
    lhs: float
    rhs: float
    margin: float
    trivial: bool | None
    violation: bool
    strict: bool | None = None


@dataclass
class CampaignResult:
    report: dict
    rows: list[Row]
    exit_code: int


def sanitize_report(obj):
    """Replace non-finite floats with strings so the output is strict JSON."""
    if isinstance(obj, dict):
        return {key: sanitize_report(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_report(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _display(flags: dict):
    """The conversion from nats to a report's display units.

    Only the entropy campaigns declare units; dominance and residual rows
    are shown as computed.
    """
    return to_bits if flags.get("units") == "bits" else float


def _row_dict(row: Row, convert) -> dict:
    out = {
        "trial": row.trial,
        "dim": row.dim,
        "functional": row.functional,
        "side": row.side,
        "lhs": convert(row.lhs),
        "rhs": convert(row.rhs),
        "margin": convert(row.margin),
        "trivial": row.trivial,
        "violation": row.violation,
    }
    if row.strict is not None:
        out["strict"] = row.strict
    return out


def _margin_summary(rows: list[Row], convert) -> dict:
    finite = [convert(r.margin) for r in rows if math.isfinite(r.margin)]
    summary = {
        "rows": len(rows),
        "violations": sum(r.violation for r in rows),
        "infinite_margins": sum(not math.isfinite(r.margin) for r in rows),
    }
    if finite:
        summary["margin_min"] = min(finite)
        summary["margin_max"] = max(finite)
        summary["margin_mean"] = sum(finite) / len(finite)
    return summary


def _base_report(cfg: CampaignConfig, flags: dict) -> dict:
    return {
        "command": cfg.command,
        "seed": cfg.seed,
        "flags": flags,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _campaign_result(
    cfg: CampaignConfig,
    flags: dict,
    rows: list[Row],
    fields: dict | None = None,
    summary: dict | None = None,
    failed: bool | None = None,
) -> CampaignResult:
    """The report of a row campaign: header, extra fields, summary and rows.

    The summary is the margin summary followed by the campaign's own keys.
    The exit code is 1 when ``failed``, which by default means that a row is
    a violation.
    """
    convert = _display(flags)
    report = _base_report(cfg, flags)
    report.update(fields or {})
    report["summary"] = {**_margin_summary(rows, convert), **(summary or {})}
    report["rows"] = [_row_dict(r, convert) for r in rows]
    if failed is None:
        failed = report["summary"]["violations"] > 0
    return CampaignResult(report, rows, 1 if failed else 0)


def plan_chunks(trials: int, slots: int, dim: int) -> list[range]:
    """Split the trial axis into chunks for the stacked campaign kernels.

    A campaign's largest stack holds ``slots`` complex (dim, dim) matrices
    per trial: the observation branches, the padded mixture states, or the
    projector families with their pinched pieces.  Each
    chunk holds as many trials as keep that stack within :data:`CHUNK_BYTES`,
    and at least one.
    """
    per_trial = slots * dim * dim * np.dtype(complex).itemsize
    size = max(1, CHUNK_BYTES // per_trial)
    return [range(start, min(start + size, trials)) for start in range(0, trials, size)]


def _entropy_table(functionals, states: tuple, branches: np.ndarray, probs: np.ndarray):
    """Entropies of stacked states and the expected entropy of their live branches.

    ``states`` holds ascending (n, d) spectra stacks and ``branches`` the
    ascending spectra of the live (p > 0) branches, in the order of ``probs``;
    all of them go through one :func:`entropies_of_spectra` call.  Returns
    the state entropies, shape (len(functionals), sum of n), and the
    expected branch entropies, shape (len(functionals),) + probs.shape[:-1].
    """
    spectra = np.concatenate(states + (branches,))
    # reversed into contiguous rows, as hermitian_spectrum orders them
    table = entropies_of_spectra(np.ascontiguousarray(spectra[:, ::-1]), functionals)
    head = len(spectra) - len(branches)
    s_branch = np.zeros((len(functionals),) + probs.shape)
    s_branch[:, probs > 0.0] = table[:, head:]
    return table[:, :head], expected_entropy_stack(probs, s_branch)


def _inequality_row(trial, dim, label, side, lhs, rhs, trivial, tol) -> Row:
    """Margin record of one check lhs <= rhs + tol."""
    margin, holds = inequality_verdict(lhs, rhs, tol)
    violation = not holds
    strict = None
    if trivial is not None and not trivial and not violation:
        strict = margin > NEAR_TRIVIAL_MARGIN
    return Row(trial, dim, label, side, lhs, rhs, margin, trivial, violation, strict)


def run_s_theorems(cfg: CampaignConfig) -> CampaignResult:
    """Random-probing campaign over both entropy inequalities.

    Per trial: sample a state and a probing, form the observation branches
    and the decohered state, and check
    expected branch entropy <= initial entropy <= decohered entropy
    for every selected functional.  The averaging identity (branch average
    equals the Schur form with the row Gram matrix) is asserted to 1e-12 as
    a side condition.

    Trial t draws from its own stream (seed, t); the draws are then stacked
    in chunks (:func:`plan_chunks`) and every map, check and entropy runs on
    the whole chunk.  The report does not depend on the chunking.
    """
    functionals = [parse_functional(text) for text in cfg.functionals]
    dim = cfg.dim
    response_dim = cfg.response_dim or dim
    rows: list[Row] = []
    skipped_singular = 0
    near_trivial = 0
    consistency_max = 0.0
    for chunk in plan_chunks(cfg.trials, response_dim, dim):
        # each trial's normals in stream order: its state, then its probing
        raw = np.empty((len(chunk), 2 * dim * (dim + response_dim)))
        for i, trial in enumerate(chunk):
            sampling.trial_stream(cfg.seed, trial).standard_normal(out=raw[i])
        rho = sampling.density_from_normals(raw[:, : 2 * dim * dim], dim)
        probe = sampling.probing_from_normals(raw[:, 2 * dim * dim :], dim, response_dim)
        del raw

        # the checks run in the order a one-trial loop makes them: state,
        # probing, branches, branch probabilities, average, Gram, decohered state
        lam_rho = validate_stack(rho, "density")
        validate_probing_stack(probe)
        probs, branches = processes.observe_stack(rho, probe)
        live = probs > 0.0
        # all branches are live unless a probing column vanishes on the state
        live_branches = branches.reshape(-1, dim, dim) if live.all() else branches[live]
        lam_branch = validate_stack(live_branches, "density")
        del live_branches
        clean_probabilities(probs)
        averaged = processes.average_stack(probs, branches)
        del branches
        validate_stack(averaged, "density")
        gram = processes.response_gram_stack(probe)
        validate_stack(gram, "gram")
        decohered = rho * gram  # the Schur product, as processes.decohere forms it
        lam_dec = validate_stack(decohered, "density")
        consistency_max = max(consistency_max, float(abs(averaged - decohered).max()))

        # an observation is trivial when every live branch keeps the state's spectrum
        branch_unchanged = np.ones(live.shape, dtype=bool)
        branch_unchanged[live] = processes.spectra_unchanged(lam_rho[np.nonzero(live)[0]], lam_branch, TRIVIALITY_TOL)
        obs_trivial = branch_unchanged.all(axis=-1).tolist()
        dec_trivial = processes.spectra_unchanged(lam_rho, lam_dec, TRIVIALITY_TOL).tolist()
        regular = (lam_rho[:, 0] >= SINGULAR_SKIP).tolist()

        table, s_expected = _entropy_table(functionals, (lam_rho, lam_dec), lam_branch, probs)
        s_rho = table[:, : len(chunk)].tolist()
        s_dec = table[:, len(chunk) :].tolist()
        s_expected = s_expected.tolist()

        for i, trial in enumerate(chunk):
            for f, functional in enumerate(functionals):
                if functional.kind == "log-det" and not regular[i]:
                    skipped_singular += 1
                    continue
                for side, lhs, rhs, trivial in (
                    ("observation", s_expected[f][i], s_rho[f][i], obs_trivial[i]),
                    ("decoherence", s_rho[f][i], s_dec[f][i], dec_trivial[i]),
                ):
                    row = _inequality_row(trial, dim, functional.label, side, lhs, rhs, trivial, cfg.tol)
                    near_trivial += row.strict is False
                    rows.append(row)

    consistency_ok = consistency_max <= CONSISTENCY_TOL
    flags = {
        "dim": cfg.dim,
        "trials": cfg.trials,
        "response_dim": response_dim,
        "entropy": [f.label for f in functionals],
        "tol": cfg.tol,
        "units": cfg.units,
    }
    summary = {
        "near_trivial": near_trivial,
        "skipped_singular": skipped_singular,
        "consistency_max_residual": consistency_max,
        "consistency_ok": consistency_ok,
    }
    failed = not consistency_ok or any(row.violation for row in rows)
    return _campaign_result(cfg, flags, rows, summary=summary, failed=failed)


def run_majorization(cfg: CampaignConfig) -> CampaignResult:
    """Spectral dominance campaign: Schur products, pinchings, spectrum sums.

    Per trial: the spectrum of a state against that of its Schur product
    with the Gram matrix of random responses; the two-sided dominance around
    the pinching of a second state by a Haar-rotated block partition; and
    Fan's dominance for two random Hermitian matrices.

    Trial t draws from its own stream (seed, t); the draws are stacked in
    chunks and every check runs once per chunk.  A partition has dim slots,
    and the slots past its blocks are dead (all-zero projectors), which add
    exact zeros to every sum and are never solved.  The report does not
    depend on the chunking.
    """
    dim = cfg.dim
    response_dim = cfg.response_dim or dim
    rows: list[Row] = []
    for chunk in plan_chunks(cfg.trials, _FAMILY_SLOTS * dim, dim):
        # each trial's normals in stream order: state, responses and pinching
        # state; then, after its block sizes, Ginibre matrix and two Hermitian draws
        square = 2 * dim * dim
        raw = np.empty((len(chunk), 2 * square + 2 * dim * response_dim))
        late = np.empty((len(chunk), 3, square))
        projectors = np.empty((len(chunk), dim, dim, dim), dtype=complex)
        for i, trial in enumerate(chunk):
            rng = sampling.trial_stream(cfg.seed, trial)
            rng.standard_normal(out=raw[i])
            projectors[i] = block_projectors(sampling.random_block_sizes(dim, rng), dim)
            rng.standard_normal(out=late[i])
        rho = sampling.density_from_normals(raw[:, :square], dim)
        responses = sampling.pure_from_normals(raw[:, square:-square].reshape(-1, dim, 2 * response_dim), response_dim)
        # the upper pinching dominance needs a PSD input (zero-diagonal-block
        # counterexamples break it for indefinite matrices), so sample a state
        pinch_input = sampling.density_from_normals(raw[:, -square:], dim)
        ginibre = sampling.ginibre_from_normals(late[:, 0], dim)
        hermitian = sampling.hermitian_from_normals(late[:, 1:], dim)
        del raw, late

        # the checks run in the order a one-trial loop makes them: state,
        # responses, Gram, Schur product, pinching state, diagonal and rotated
        # partitions, pinching, Fan
        lam_rho = validate_stack(rho, "density")[..., ::-1]
        env = gram_from_unit_rows(responses)
        validate_stack(env, "gram")
        _, schur = schur_dominance(lam_rho, rho * env)
        lam_input = validate_stack(pinch_input, "density")[..., ::-1]
        validate_projector_stack(projectors)
        projectors = sampling.conjugated_projectors(sampling.haar_from_ginibre(ginibre), projectors)
        validate_projector_stack(projectors)
        *_, upper, lower = pinching_dominance(lam_input, pinch_input, projectors)
        del projectors
        hermitian = sampling.unit_spectral_radius(hermitian)
        *_, fan = fan_dominance(hermitian[:, 0], hermitian[:, 1])

        # each row is its check's worst prefix: dominated prefix sum <= dominating one
        sides = ("schur", "pinching-upper", "pinching-lower", "fan")
        columns = [
            (check.dominated_prefix.tolist(), check.dominator_prefix.tolist(), check.worst_margin.tolist(),
             (~check.holds(cfg.tol)).tolist())
            for check in (schur, upper, lower, fan)
        ]
        for i, trial in enumerate(chunk):
            for side, (lhs, rhs, margin, violation) in zip(sides, columns):
                rows.append(Row(trial, dim, "", side, lhs[i], rhs[i], margin[i], None, violation[i]))

    flags = {"dim": cfg.dim, "trials": cfg.trials, "response_dim": response_dim, "tol": cfg.tol}
    return _campaign_result(cfg, flags, rows)


def run_holevo(cfg: CampaignConfig) -> CampaignResult:
    """Random-mixture campaign: average branch entropy vs entropy of the average.

    Trial t draws from its own stream (seed, t).  The ragged mixtures of a
    chunk are padded to a common number of slots with dead (p = 0) slots,
    which add exact zeros to every sum and are never validated or solved.
    """
    functionals = [parse_functional(text) for text in cfg.functionals]
    dim = cfg.dim
    slots = cfg.ensemble_size or _MAX_MIXTURE_SIZE
    rows: list[Row] = []
    for chunk in plan_chunks(cfg.trials, slots, dim):
        probs = np.zeros((len(chunk), slots))
        present = np.zeros((len(chunk), slots), dtype=bool)
        # the normals of every present slot, trial after trial
        raw = np.empty((len(chunk) * slots, 2 * dim * dim))
        filled = 0
        for i, trial in enumerate(chunk):
            rng = sampling.trial_stream(cfg.seed, trial)
            size = cfg.ensemble_size or int(rng.integers(2, _MAX_MIXTURE_SIZE + 1))
            probs[i, :size] = sampling.random_simplex(size, rng)
            rng.standard_normal(out=raw[filled : filled + size])
            present[i, :size] = True
            filled += size
        drawn = sampling.density_from_normals(raw[:filled], dim)
        del raw
        mats = np.zeros((len(chunk), slots, dim, dim), dtype=complex)
        mats[present] = drawn

        lam_state = validate_stack(drawn, "density")
        del drawn
        probs = clean_probabilities(probs)
        average = processes.average_stack(probs, mats)
        lam_avg = validate_stack(average, "density")
        live = probs > 0.0

        rhs, lhs = _entropy_table(functionals, (lam_avg,), lam_state[live[present]], probs)
        rhs, lhs = rhs.tolist(), lhs.tolist()
        for i, trial in enumerate(chunk):
            for f, functional in enumerate(functionals):
                row = _inequality_row(trial, dim, functional.label, "holevo", lhs[f][i], rhs[f][i], None, cfg.tol)
                rows.append(row)

    flags = {
        "dim": cfg.dim,
        "trials": cfg.trials,
        "ensemble_size": cfg.ensemble_size,
        "entropy": [f.label for f in functionals],
        "tol": cfg.tol,
        "units": cfg.units,
    }
    return _campaign_result(cfg, flags, rows)


def run_luders(cfg: CampaignConfig) -> CampaignResult:
    """Random diagonal partitions: pinching equals the block Schur form to 1e-12.

    Trial t draws from its own stream (seed, t); the draws are stacked in
    chunks as in :func:`run_majorization`, with dead partition slots.
    """
    dim = cfg.dim
    rows: list[Row] = []
    for chunk in plan_chunks(cfg.trials, _FAMILY_SLOTS * dim, dim):
        raw = np.empty((len(chunk), 2 * dim * dim))
        projectors = np.empty((len(chunk), dim, dim, dim), dtype=complex)
        for i, trial in enumerate(chunk):
            rng = sampling.trial_stream(cfg.seed, trial)
            rng.standard_normal(out=raw[i])
            projectors[i] = block_projectors(sampling.random_block_sizes(dim, rng), dim)
        rho = sampling.density_from_normals(raw, dim)
        del raw

        # state, partition, pinching, block Gram matrix, Schur form
        validate_stack(rho, "density")
        validate_projector_stack(projectors)
        _, pinched = processes.pinch(projectors, rho)
        validate_stack(pinched, "density")
        gram = gram_from_projector_stack(projectors)
        validate_stack(gram, "gram")
        schur_form = rho * gram
        validate_stack(schur_form, "density")
        residuals = abs(pinched - schur_form).max(axis=(-2, -1), initial=0.0).tolist()
        for trial, residual in zip(chunk, residuals):
            rows.append(Row(trial, dim, "", "luders-equivalence", residual, CONSISTENCY_TOL,
                            CONSISTENCY_TOL - residual, None, residual > CONSISTENCY_TOL))

    return _campaign_result(cfg, {"dim": cfg.dim, "trials": cfg.trials}, rows)


def _exact_check(name: str, residual: float) -> dict:
    """A counterexample check: it passes when the residual is within CONSISTENCY_TOL."""
    return {"name": name, "pass": residual <= CONSISTENCY_TOL, "residual": residual}


def run_counterexample(cfg: CampaignConfig) -> CampaignResult:
    """Reproduce one fixed inequality-breaking measurement exactly.

    Hard checks (all to 1e-12): branch probabilities, live branch states, and
    the von Neumann entropy jump; plus the purity-preservation classification
    and the identity of the violated side.  The selected functional's
    entropies are reported alongside.
    """
    if len(cfg.functionals) > 1:
        raise ValueError("counterexample takes at most one --entropy")
    functional = parse_functional(cfg.functionals[0])
    vn = von_neumann()
    if cfg.which == 1:
        measurement, initial = counterexample_1()
        expected_probs = [0.5, 0.5, 0.0, 0.0]
        expected_state = np.eye(2, dtype=complex) / 2.0
        expected_purity_preserving = False
        violated_side = "observation"
        expected_before_vn, expected_jump_vn = 0.0, math.log(2.0)
    else:
        measurement, initial = counterexample_2()
        expected_probs = [0.5, 0.5]
        expected_state = np.zeros((2, 2), dtype=complex)
        expected_state[0, 0] = 1.0
        expected_purity_preserving = True
        violated_side = "decoherence"
        expected_before_vn, expected_jump_vn = math.log(2.0), 0.0

    ensemble = apply_povm(initial, measurement)
    average = processes.ensemble_average(ensemble)
    probabilities = [outcome.probability for outcome in ensemble]
    prob_residual = max(abs(p - e) for p, e in zip(probabilities, expected_probs))
    outcome_residual = max(
        matcore.max_abs(outcome.state.mat - expected_state)
        for outcome in ensemble
        if outcome.probability > ZERO_PROBABILITY
    )
    purity_preserving = ancilla_factors(measurement) is not None

    rows: list[Row] = []
    entropies = {}
    for f in [vn] if functional == vn else [vn, functional]:
        before, expected_after, of_average = entropies[f.label] = (
            entropy(initial, f),
            expected_entropy(ensemble, f),
            entropy(average, f),
        )
        rows.append(_inequality_row(0, 2, f.label, "observation", expected_after, before, None, cfg.tol))
        rows.append(_inequality_row(0, 2, f.label, "decoherence", before, of_average, None, cfg.tol))

    before_vn, expected_vn, average_vn = entropies[vn.label]
    # the measured quantity on the violated side, against the initial entropy
    jump_value = expected_vn if cfg.which == 1 else average_vn
    observed_violation = next((r.side for r in rows if r.functional == vn.label and r.violation), None)
    checks = [
        _exact_check("probabilities", prob_residual),
        _exact_check("outcome-states", outcome_residual),
        _exact_check("entropy-before", abs(before_vn - expected_before_vn)),
        _exact_check("entropy-jump", abs(jump_value - expected_jump_vn)),
        _exact_check("purity-preserving-classification", float(purity_preserving != expected_purity_preserving)),
        _exact_check("violated-side", float(observed_violation != violated_side)),
    ]

    flags = {"which": cfg.which, "entropy": functional.label, "units": cfg.units}
    convert = _display(flags)
    sel_before, sel_expected, sel_average = entropies[functional.label]
    fields = {
        "probabilities": probabilities,
        "expected_probabilities": expected_probs,
        "purity_preserving": purity_preserving,
        "expected_purity_preserving": expected_purity_preserving,
        "violated_side": violated_side,
        "entropy": {
            "functional": functional.label,
            "before": convert(sel_before),
            "expected_after_observation": convert(sel_expected),
            "of_average": convert(sel_average),
        },
        "checks": checks,
    }
    checks_failed = sum(not c["pass"] for c in checks)
    return _campaign_result(cfg, flags, rows, fields, {"checks_failed": checks_failed}, checks_failed > 0)


def run_povm_classify(cfg: CampaignConfig) -> CampaignResult:
    """Classify a measurement file as general or purity-preserving."""
    measurement = serialize.load_povm(cfg.povm_file)
    factors = ancilla_factors(measurement)
    report = _base_report(cfg, {"file": cfg.povm_file})
    if factors is None:
        report["classification"] = "general"
    else:
        report["classification"] = "purity-preserving"
        report["probing_realizable"] = "unknown"
        report["ancilla_basis"] = [serialize.matrix_to_json(v.reshape(-1, 1)) for v in factors]
    report["object_dim"] = measurement.object_dim
    report["ancilla_dim"] = measurement.ancilla_dim
    report["summary"] = {"rows": 0, "violations": 0}
    report["rows"] = []
    return CampaignResult(report, [], 0)


_DISPATCH = {
    "verify-s-theorems": run_s_theorems,
    "majorization": run_majorization,
    "counterexample": run_counterexample,
    "holevo": run_holevo,
    "luders-equiv": run_luders,
    "povm-classify": run_povm_classify,
}


def _add_seeded(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="campaign seed; trial t draws from child stream (seed, t)")
    parser.add_argument("--dim", type=int, default=2, help="state dimension")
    parser.add_argument("--trials", type=int, default=100, help="number of trials")


def _add_entropy(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--entropy",
        action="append",
        metavar="F",
        help="entropy selector, repeatable except for counterexample: von-neumann | linear | renyi:<alpha> | log-det",
    )
    parser.add_argument("--units", choices=("nats", "bits"), default="nats", help="display units")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=HARD_TOL, help="slack for hard inequality checks")
    parser.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decobs",
        description="Randomized verification of entropy inequalities for decoherence and observation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-s-theorems", help="check both entropy inequalities on random probings")
    _add_seeded(p)
    p.add_argument("--response-dim", type=int, default=None, help="perception basis size (default: dim)")
    _add_entropy(p)
    _add_output(p)

    p = sub.add_parser("majorization", help="spectral dominance campaigns")
    _add_seeded(p)
    p.add_argument("--response-dim", type=int, default=None, help="overlap response dimension (default: dim)")
    _add_output(p)

    p = sub.add_parser("counterexample", help="reproduce an inequality-breaking measurement")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    _add_entropy(p)
    _add_output(p)

    p = sub.add_parser("holevo", help="average branch entropy vs entropy of the average")
    _add_seeded(p)
    p.add_argument("--ensemble-size", type=int, default=None, help="branches per mixture (default: random 2-5)")
    _add_entropy(p)
    _add_output(p)

    p = sub.add_parser("luders-equiv", help="pinching equals block Schur form")
    _add_seeded(p)
    p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")

    p = sub.add_parser("povm-classify", help="classify a measurement JSON file")
    p.add_argument("povm_file", help="path to a measurement JSON file")
    p.add_argument("--format", choices=("json",), default="json", dest="fmt")

    return parser


def _config_from_args(args: argparse.Namespace) -> CampaignConfig:
    fields = dict(vars(args))
    selectors = fields.pop("entropy", None)
    if selectors:
        fields["functionals"] = tuple(selectors)
    return CampaignConfig(**fields)


def _emit(result: CampaignResult, cfg: CampaignConfig) -> None:
    if cfg.fmt == "csv":
        convert = _display(result.report["flags"])
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["trial", "dim", "functional", "side", "lhs", "rhs", "margin", "trivial"])
        for row in result.rows:
            trivial = "" if row.trivial is None else ("true" if row.trivial else "false")
            values = [repr(convert(value)) for value in (row.lhs, row.rhs, row.margin)]
            writer.writerow([row.trial, row.dim, row.functional, row.side, *values, trivial])
    else:
        print(json.dumps(sanitize_report(result.report), indent=2))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        result = _DISPATCH[args.command](cfg)
    except (ValidationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(result, cfg)
        # flushed here, so that a reader closing the pipe early is caught here
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

"""The ``verify-s-theorems`` campaign: both entropy inequalities on random states and probings.

Each trial draws a state and a probing, observes the state (the branches
stream through in blocks, :func:`~decobs.campaigns._branch_blocks`),
decoheres it by the probing's response Gram matrix, and judges the chain
expected branch entropy <= S(rho) <= S(rho o G) with
:func:`~decobs.campaigns._chain_rows`.
"""

from __future__ import annotations

import numpy as np

from .. import sampling
from ..stacks import (
    average_stack, clean_probabilities, observe_stack, response_gram_stack, spectra_unchanged,
    validate_probing_stack, validate_stack,
)
from ..tolerances import CONSISTENCY_TOL, SINGULAR_SKIP
from . import (
    CampaignConfig, CampaignResult, _branch_blocks, _campaign_result, _chain_rows, _check_stacks, _joined, _map_chunks,
    plan_chunks,
)


def sample_s_theorems(cfg: CampaignConfig, chunk: range) -> tuple[np.ndarray, np.ndarray]:
    """The chunk's states, (n, d, d), and probings, (n, d, m), not validated.

    Trial t draws the normals of its state and then of its probing, in one call.
    """
    dim, response_dim = cfg.dim, cfg.response_dim or cfg.dim
    raw = np.empty((len(chunk), 2 * dim * (dim + response_dim)))
    for i, rng in sampling.trial_streams(cfg.seed, chunk):
        rng.standard_normal(out=raw[i])
    rho = sampling.density_from_normals(raw[:, : 2 * dim * dim], dim)
    return rho, sampling.probing_from_normals(raw[:, 2 * dim * dim :], dim, response_dim)


def evaluate_s_theorems(cfg: CampaignConfig, trials: range, stacks: tuple) -> tuple[dict, int, float]:
    """The row columns, skipped singular rows and consistency residual of ``trials``.

    ``stacks`` holds the states and probings :func:`sample_s_theorems` draws for them.
    """
    rho, probe = stacks
    del stacks
    _check_stacks(trials, (rho, "ndd"), (probe, "ndm"))
    # real stacks are valid; cast them once, so that they round as their complex casts do
    rho, probe = (np.asarray(stack, dtype=complex) for stack in (rho, probe))
    dim, response_dim = probe.shape[-2:]

    # the checks run in the order a one-trial loop makes them: state,
    # probing, branches, branch probabilities, average, Gram, decohered state
    lam_rho = validate_stack(rho, "density")
    validate_probing_stack(probe)
    # the branches are observed, checked and added to their trial's
    # average one block at a time, in trial-then-outcome order
    probs = np.empty((len(rho), response_dim))
    averaged = np.zeros_like(rho)
    spectra = [np.empty((0, dim))]  # an empty chunk has no blocks
    for block, outcomes in _branch_blocks(len(rho), response_dim, dim):
        block_probs, branches = observe_stack(rho[block], probe[block, :, outcomes])
        live = block_probs > 0.0
        # all branches are live unless a probing column vanishes on the state
        spectra.append(validate_stack(branches.reshape(-1, dim, dim) if live.all() else branches[live], "density"))
        average_stack(block_probs, branches, out=averaged[block])
        del branches
        probs[block, outcomes] = block_probs
    lam_branch = np.concatenate(spectra)
    live = probs > 0.0
    clean_probabilities(probs)
    validate_stack(averaged, "density")
    gram = response_gram_stack(probe)
    validate_stack(gram, "gram")
    decohered = rho * gram  # decoherence: the Schur product with the response Gram matrix
    lam_dec = validate_stack(decohered, "density")
    consistency = float(abs(averaged - decohered).max(initial=0.0))

    # an observation is trivial when every live branch keeps the state's spectrum
    branch_unchanged = np.ones(live.shape, dtype=bool)
    branch_unchanged[live] = spectra_unchanged(lam_rho[np.nonzero(live)[0]], lam_branch)
    obs_trivial = branch_unchanged.all(axis=-1)
    dec_trivial = spectra_unchanged(lam_rho, lam_dec)

    # log-det skips a singular state
    log_det = np.array([f.kind == "log-det" for f in cfg.functionals], dtype=bool)
    regular = (lam_rho[:, -1] >= SINGULAR_SKIP)[:, None] | ~log_det
    columns = _chain_rows(
        cfg.functionals, trials, probs, lam_branch, (lam_rho, lam_dec), ("observation", "decoherence"), cfg.tol,
        keep=regular[..., None], trivial=np.stack((obs_trivial, dec_trivial), axis=-1),
    )
    return columns, int(np.count_nonzero(~regular)), consistency


def run_s_theorems(cfg: CampaignConfig) -> CampaignResult:
    """Random-probing campaign over both entropy inequalities.

    Per trial: sample a state and a probing, form the observation branches
    and the decohered state, and check
    expected branch entropy <= initial entropy <= decohered entropy
    for every selected functional.  The averaging identity (branch average
    equals the Schur form with the row Gram matrix) is asserted to
    CONSISTENCY_TOL as a side condition.
    """
    dim = cfg.dim
    response_dim = cfg.response_dim or dim
    # a trial keeps its state, probing and their raw normals, average, Gram
    # and decohered state; its branches stream through in blocks
    slots = 5 + 2 * -(-response_dim // dim)
    chunks = plan_chunks(cfg.trials, slots, cfg.dim)
    evaluated = _map_chunks(lambda chunk: evaluate_s_theorems(cfg, chunk, sample_s_theorems(cfg, chunk)), chunks)
    blocks, skipped, residuals = zip(*evaluated)
    skipped_singular = sum(skipped)
    consistency_max = max(0.0, *residuals)
    columns = _joined(blocks)
    consistency_ok = consistency_max <= CONSISTENCY_TOL
    flags = {
        "dim": cfg.dim,
        "trials": cfg.trials,
        "response_dim": response_dim,
        "entropy": [f.label for f in cfg.functionals],
        "tol": cfg.tol,
        "units": cfg.units,
    }
    summary = {
        "near_trivial": columns["strict"].tolist().count(False),
        "skipped_singular": skipped_singular,
        "consistency_max_residual": consistency_max,
        "consistency_ok": consistency_ok,
    }
    failed = not consistency_ok or columns["violation"].any()
    return _campaign_result(cfg, flags, columns, summary=summary, failed=failed)

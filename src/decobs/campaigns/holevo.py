"""The ``holevo`` campaign: average branch entropy never exceeds the entropy of the average.

Each trial draws a random mixture of 2 to :data:`_MAX_MIXTURE_SIZE` states
(or ``--ensemble-size``), and judges the one-link chain
sum_k p_k S(rho_k) <= S(sum_k p_k rho_k) with
:func:`~decobs.campaigns._chain_rows`.
"""

from __future__ import annotations

import numpy as np

from .. import sampling
from ..errors import ValidationError
from ..stacks import average_stack, clean_probabilities, validate_stack
from . import (
    CampaignConfig, CampaignResult, _campaign_result, _chain_rows, _check_stacks, _joined, _map_chunks, plan_chunks,
)

#: Random mixtures in the holevo campaign have 2 to this many branches.
_MAX_MIXTURE_SIZE = 5


def sample_holevo(cfg: CampaignConfig, chunk: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chunk's mixtures: sizes (n,), weights (n, slots) and states, not validated.

    Trial t draws its size (unless ``cfg.ensemble_size`` fixes it), its
    simplex weights and then the normals of its states in one call.  The
    weights are padded with zeros to the campaign's slots, and the states of
    all trials are one (sum of sizes, d, d) stack, trial after trial.
    """
    dim, slots = cfg.dim, cfg.ensemble_size or _MAX_MIXTURE_SIZE
    sizes = np.empty(len(chunk), dtype=int)
    probs = np.zeros((len(chunk), slots))
    raw = np.empty((len(chunk) * slots, 2 * dim * dim))
    filled = 0
    for i, rng in sampling.trial_streams(cfg.seed, chunk):
        size = sizes[i] = cfg.ensemble_size or int(rng.integers(2, _MAX_MIXTURE_SIZE + 1))
        probs[i, :size] = sampling.random_simplex(size, rng)
        rng.standard_normal(out=raw[filled : filled + size])
        filled += size
    return sizes, probs, sampling.density_from_normals(raw[:filled], dim)


def evaluate_holevo(cfg: CampaignConfig, trials: range, stacks: tuple) -> dict:
    """The row columns of ``trials``, from the mixtures :func:`sample_holevo` draws for them."""
    sizes, probs, drawn = stacks
    del stacks
    _check_stacks(trials, (sizes, "n", "s"), (probs, "ns"), (drawn, "kdd"))
    drawn = np.asarray(drawn, dtype=complex)
    present = np.arange(probs.shape[-1]) < sizes[:, None]
    if len(drawn) != np.count_nonzero(present):
        raise ValidationError("stacks-same-trials", detail=f"{len(drawn)} states, {np.count_nonzero(present)} slots")
    mats = np.zeros(probs.shape + drawn.shape[-2:], dtype=complex)
    mats[present] = drawn

    lam_state = validate_stack(drawn, "density")
    del drawn
    probs = clean_probabilities(probs)
    average = average_stack(probs, mats)
    lam_avg = validate_stack(average, "density")
    lam_live = lam_state[(probs > 0.0)[present]]
    return _chain_rows(cfg.functionals, trials, probs, lam_live, (lam_avg,), ("holevo",), cfg.tol)


def run_holevo(cfg: CampaignConfig) -> CampaignResult:
    """Random-mixture campaign: average branch entropy vs entropy of the average.

    The ragged mixtures of a chunk are padded to a common number of slots
    with dead (p = 0) slots, which add exact zeros to every sum and are
    never validated or solved.
    """
    chunks = plan_chunks(cfg.trials, cfg.ensemble_size or _MAX_MIXTURE_SIZE, cfg.dim)
    blocks = _map_chunks(lambda chunk: evaluate_holevo(cfg, chunk, sample_holevo(cfg, chunk)), chunks)
    flags = {
        "dim": cfg.dim,
        "trials": cfg.trials,
        "ensemble_size": cfg.ensemble_size,
        "entropy": [f.label for f in cfg.functionals],
        "tol": cfg.tol,
        "units": cfg.units,
    }
    return _campaign_result(cfg, flags, _joined(blocks))

"""The ``majorization`` campaign: the spectral dominances behind the inequalities.

Each trial checks the Schur-product dominance of a state over its product
with a random unit-row Gram matrix, the two-sided dominance around the
pinching of a second state by a Haar-rotated block partition, and Fan's
dominance for two random Hermitian matrices.  Its kernels, the projector
families' among them, live in :mod:`decobs.majorization`, which no other
campaign loads.
"""

from __future__ import annotations

import numpy as np

from .. import sampling
from ..majorization import (
    block_projectors, fan_dominance, gram_from_unit_rows, pinching_dominance, schur_dominance,
    validate_projector_stack,
)
from ..stacks import validate_stack
from . import (
    CampaignConfig, CampaignResult, _campaign_result, _check_stacks, _grid_rows, _joined, _map_chunks, plan_chunks,
)

#: A projector family has dim slots, and the families and a second stack of
#: their size (the pinched pieces, or a product's temporaries) are alive at
#: once, so the chunk planner counts twice the slots of a family.
_FAMILY_SLOTS = 2


def sample_majorization(cfg: CampaignConfig, chunk: range) -> tuple:
    """The chunk's draws for the three dominance checks, not validated.

    Returns the states (n, d, d), unit response vectors (n, d, m), pinching
    states (n, d, d), block sizes (a list of n tuples), Ginibre matrices
    (n, d, d) and Hermitian pairs (n, 2, d, d).  Trial t draws them in that
    order: the normals of its state, responses and pinching state in one
    call, then its block sizes, then the rest of its normals in one call.
    """
    dim, response_dim = cfg.dim, cfg.response_dim or cfg.dim
    square = 2 * dim * dim
    raw = np.empty((len(chunk), 2 * square + 2 * dim * response_dim))
    late = np.empty((len(chunk), 3, square))
    partitions = []
    for i, rng in sampling.trial_streams(cfg.seed, chunk):
        rng.standard_normal(out=raw[i])
        partitions.append(sampling.random_block_sizes(dim, rng))
        rng.standard_normal(out=late[i])
    rho = sampling.density_from_normals(raw[:, :square], dim)
    responses = sampling.pure_from_normals(raw[:, square:-square].reshape(-1, dim, 2 * response_dim), response_dim)
    # the upper pinching dominance needs a PSD input (zero-diagonal-block
    # counterexamples break it for indefinite matrices), so sample a state
    pinch_input = sampling.density_from_normals(raw[:, -square:], dim)
    ginibre = sampling.ginibre_from_normals(late[:, 0], dim)
    return rho, responses, pinch_input, partitions, ginibre, sampling.hermitian_from_normals(late[:, 1:], dim)


def evaluate_majorization(cfg: CampaignConfig, trials: range, stacks: tuple) -> dict:
    """The row columns of ``trials``, from the stacks :func:`sample_majorization` draws for them."""
    rho, responses, pinch_input, partitions, ginibre, hermitian = stacks
    del stacks
    _check_stacks(
        trials, (rho, "ndd"), (responses, "ndm"), (pinch_input, "ndd"), (partitions, "p"), (ginibre, "ndd"),
        (hermitian, "nkdd"),
    )
    rho, responses, pinch_input, ginibre, hermitian = (
        np.asarray(stack, dtype=complex) for stack in (rho, responses, pinch_input, ginibre, hermitian)
    )
    dim = rho.shape[-1]

    # the checks run in the order a one-trial loop makes them: state,
    # responses, Gram, Schur product, pinching state, rotated partition
    # (conjugation keeps every projector identity, so a broken 0/1 family
    # fails there), pinching, Fan
    lam_rho = validate_stack(rho, "density")
    env = gram_from_unit_rows(responses)
    validate_stack(env, "gram")
    _, schur = schur_dominance(lam_rho, rho * env)
    lam_input = validate_stack(pinch_input, "density")
    projectors = sampling.conjugated_projectors(
        sampling.haar_from_ginibre(ginibre), block_projectors(partitions, dim, dim)
    )
    validate_projector_stack(projectors)
    *_, upper, lower = pinching_dominance(lam_input, pinch_input, projectors)
    del projectors
    hermitian = sampling.unit_spectral_radius(hermitian)
    *_, fan = fan_dominance(hermitian[:, 0], hermitian[:, 1])

    # each row is its check's worst prefix: dominated prefix sum <= dominating one
    checks = (schur, upper, lower, fan)
    return _grid_rows(
        (len(rho), len(checks)),
        trial=np.asarray(trials, dtype=int)[:, None],
        functional="",
        side=np.array(["schur", "pinching-upper", "pinching-lower", "fan"]),
        lhs=np.stack([check.dominated_prefix for check in checks], axis=-1),
        rhs=np.stack([check.dominator_prefix for check in checks], axis=-1),
        margin=np.stack([check.worst_margin for check in checks], axis=-1),
        violation=~np.stack([check.holds(cfg.tol) for check in checks], axis=-1),
    )


def run_majorization(cfg: CampaignConfig) -> CampaignResult:
    """Spectral dominance campaign: Schur products, pinchings, spectrum sums.

    Per trial: the spectrum of a state against that of its Schur product
    with the Gram matrix of random responses; the two-sided dominance around
    the pinching of a second state by a Haar-rotated block partition; and
    Fan's dominance for two random Hermitian matrices.  A partition has dim
    slots, and the slots past its blocks are dead (all-zero projectors),
    which add exact zeros to every sum and are never solved.
    """
    dim = cfg.dim
    response_dim = cfg.response_dim or dim
    # the responses stack and its raw normals are alive beside the families
    slots = _FAMILY_SLOTS * dim + 2 * -(-response_dim // dim)
    chunks = plan_chunks(cfg.trials, slots, cfg.dim)
    blocks = _map_chunks(lambda chunk: evaluate_majorization(cfg, chunk, sample_majorization(cfg, chunk)), chunks)
    flags = {"dim": cfg.dim, "trials": cfg.trials, "response_dim": response_dim, "tol": cfg.tol}
    return _campaign_result(cfg, flags, _joined(blocks))

"""The campaigns behind the subcommands, and the report builder they share.

Each of the three seeded campaigns (``verify-s-theorems``, ``majorization``
and ``holevo``) is a sampler, an evaluator and the chunk map.  The
sampler, ``sample_*(cfg, chunk)``, draws each trial t of a chunk from stream
(seed, t) in a fixed order and returns the chunk's stacks, transformed and
not validated, and any block sizes; the samplers are the only code that
reads :func:`~decobs.sampling.trial_streams`, which seeds the chunk's
streams itself, in bounded blocks, and hands each trial the same generator,
reset to that trial's stream, so a sampler finishes with a trial's ``rng``
before it takes the next.  The evaluator, ``evaluate_*(cfg, trials,
stacks)``, validates the stacks a sampler returns for ``trials``, applies
the maps and returns the trials' judged row columns, margin and violation
included, which :func:`_campaign_result` makes rows.  Every entropy row is
a link of one chain, sum_k p_k S(rho_k) <= S(link 0) <= S(link 1) <= ...,
built and judged by :func:`_chain_rows`.  An evaluator takes every shape
from its stacks and reads only ``cfg.functionals`` and ``cfg.tol``, so it
checks any stacks of that form, not only drawn ones; ``run_*`` hands it
each chunk's draws and joins their rows.

The trials are split into chunks (:func:`plan_chunks`), and every chunk goes
through one chunk map, :func:`_map_chunks`.  A chunk holds the stacks its
trials keep; ``verify-s-theorems`` streams a chunk's observation branches
through in blocks (:func:`_branch_blocks`), each observed, checked and
added to its trials' averages before the next is built.  With ``W =
min(allowed CPUs, chunks // 2)`` of two or more, it forks ``W - 1`` workers.  The map loads
``numpy.random`` first, so that the workers do not each load it again.  This
process and every worker pin themselves to an allowed CPU of their own: on a
2-vCPU guest, unpinned threads stayed on one vCPU for a whole run, and a
forked child stayed on its parent's vCPU in 8 of 8 tries.  Process w of
the W (this one is w = 0) evaluates the stripe of chunks w, w + W, w + 2W,
… in order, up to its first failing chunk, and this process also takes the
stripes of the workers it could not fork.  The results are put back in
chunk order, and the exception of the lowest failing chunk is raised, which
is the error the serial loop raises.  Trial t draws from
stream (seed, t) wherever it runs, so a report and its exit code do not
depend on the chunking, the worker count or the scheduling.  When a
campaign runs from :func:`decobs.cli.main`, the objects left by import are
frozen (``gc.freeze``), so neither this process's collections nor a forked
worker's walk them.

The seeded campaigns call the kernel layer only (:mod:`decobs.stacks`,
:mod:`decobs.sampling`, :mod:`decobs.entropy`, :mod:`decobs.majorization`),
so importing this module loads no value type.  ``counterexample`` and
``povm-classify`` load the value layer inside their ``run_*`` functions;
``counterexample`` gets its measurement's branches as stacks
(:func:`~decobs.povm.apply_povm`), and averages and evaluates them with the
seeded campaigns' kernels: its rows are the two-link chain of
:func:`_chain_rows`, and it reads its entropies back from them.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
from datetime import datetime, timezone
from itertools import compress, repeat
from typing import TYPE_CHECKING

import numpy as np

from . import matcore, sampling
from .entropy import entropies_of_spectra, expected_entropy_stack, to_bits, von_neumann
from .errors import ValidationError
from .majorization import fan_dominance, inequality_verdict, pinching_dominance, schur_dominance
from .records import Record
from .stacks import (
    _blocks, average_stack, block_projectors, clean_probabilities, gram_from_unit_rows, observe_stack,
    response_gram_stack, spectra_unchanged, validate_probing_stack, validate_projector_stack, validate_stack,
)
from .tolerances import CONSISTENCY_TOL, NEAR_TRIVIAL_MARGIN, SINGULAR_SKIP

if TYPE_CHECKING:
    from .cli import CampaignConfig

#: Budget, in bytes, of a chunk's stacks, and of each block of observation
#: branches.  At dim 4 a whole 200-trial ``verify-s-theorems`` campaign is one
#: chunk and one block; at dim 32 with 32 branches a chunk holds 4 trials
#: and a block the branches of one.
CHUNK_BYTES = 512 * 1024

#: Random mixtures in the holevo campaign have 2 to this many branches.
_MAX_MIXTURE_SIZE = 5

#: A projector family has dim slots, and the families and a second stack of
#: their size (the pinched pieces, or a product's temporaries) are alive at
#: once, so the chunk planner counts twice the slots of a family.
_FAMILY_SLOTS = 2


class CampaignResult(Record):
    """A campaign's report, as :func:`_campaign_result` builds it, and the exit code it earns."""

    __slots__ = ("report", "exit_code")

    def __init__(self, report: dict, exit_code: int):
        self._set(report, exit_code)


#: The keys of a report row, in order; rows that carry ``strict`` end with it.
ROW_KEYS = ("trial", "dim", "functional", "side", "lhs", "rhs", "margin", "trivial", "violation")


def _shown(flags: dict, values) -> list:
    """Values in nats as a report shows them: a list of floats in its display units.

    Only the entropy campaigns declare units; dominance and residual values
    are shown as computed.  Each non-finite value is spelled "inf", "-inf"
    or "nan", so that the report is strict JSON.
    """
    values = np.asarray(values, dtype=float)
    if flags.get("units") == "bits":
        values = to_bits(values)
    out = values.tolist()
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        out[i] = repr(out[i])
    return out


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
    columns: dict,
    fields: dict | None = None,
    summary: dict | None = None,
    failed: bool | None = None,
    dim: int | None = None,
) -> CampaignResult:
    """The report of a row campaign: header, extra fields, summary and rows.

    ``columns`` holds one array per row field, in row order: trial,
    functional, side, lhs, rhs, margin (in nats) and violation, and
    optionally trivial and strict (None where a row has no strictness).
    The row dicts are made here and nowhere else, each with ``dim``
    (default ``cfg.dim``).  The summary is the margin summary followed by
    the campaign's own keys.  The exit code is 1 when ``failed``, which by
    default means that a row is a violation.

    Each row is one dict display, its keys in :data:`ROW_KEYS` order, and
    ``strict`` is set after them, so a row has the keys, order and values
    of ``dict(zip(ROW_KEYS, cell))`` with ``strict`` added, without building
    a key-value zip per row.  Every value comes from a ``tolist`` (the strict
    column's too, rather than from iterating its object array), so each is
    a Python scalar, as before.
    """
    lhs, rhs, margin = (_shown(flags, columns[name]) for name in ("lhs", "rhs", "margin"))
    violation = columns["violation"].tolist()
    finite = np.isfinite(columns["margin"])
    stats = {"rows": len(violation), "violations": sum(violation), "infinite_margins": int(np.count_nonzero(~finite))}
    if finite.any():
        values = list(compress(margin, finite.tolist()))
        # summed left to right, which builtin sum does only up to Python 3.11
        mean = float(matcore.sequential_sum(values)) / len(values)
        stats.update(margin_min=min(values), margin_max=max(values), margin_mean=mean)

    report = _base_report(cfg, flags)
    report.update(fields or {})
    report["summary"] = {**stats, **(summary or {})}
    dim = cfg.dim if dim is None else dim
    trivial = columns["trivial"].tolist() if "trivial" in columns else repeat(None)
    cells = zip(
        columns["trial"].tolist(), columns["functional"].tolist(), columns["side"].tolist(),
        lhs, rhs, margin, trivial, violation,
    )
    rows = report["rows"] = [
        {
            "trial": trial, "dim": dim, "functional": label, "side": side, "lhs": left, "rhs": right,
            "margin": gap, "trivial": unchanged, "violation": violated,
        }
        for trial, label, side, left, right, gap, unchanged, violated in cells
    ]
    if "strict" in columns:
        for row, strict in zip(rows, columns["strict"].tolist()):
            if strict is not None:
                row["strict"] = strict
    if failed is None:
        failed = stats["violations"] > 0
    return CampaignResult(report, 1 if failed else 0)


def _grid_rows(shape: tuple, keep=True, **cells) -> dict:
    """Row columns from arrays laid out on a (trial, ...) grid of rows.

    Each cell array is broadcast to ``shape`` and read in C order, so rows
    run trial by trial; grid points where ``keep`` is False give no row.
    """
    keep = np.broadcast_to(keep, shape)
    return {name: np.broadcast_to(values, shape)[keep] for name, values in cells.items()}


def _joined(blocks: list[dict]) -> dict:
    """The row columns of consecutive chunks, joined."""
    return {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}


def _chain_rows(functionals, trials, probs, lam_branch, links: tuple, sides, tol: float, keep=True, trivial=None):
    """The judged rows of each trial's entropy chain sum_k p_k S(rho_k) <= S(link 0) <= S(link 1) <= ...

    ``probs`` holds each trial's branch probabilities, (n, m), ``lam_branch``
    the spectra of its live (p > 0) branches in that order, and ``links``
    (n, d) spectrum stacks, all non-increasing; one
    :func:`entropies_of_spectra` call takes them all.  Link -1 is the
    expected branch entropy (:func:`expected_entropy_stack`), and row i, on
    side ``sides[i]``, has lhs S(link i - 1), rhs S(link i), and the margin
    and violation of :func:`inequality_verdict`.  Rows run trial,
    functional, side; where ``keep`` is False there is no row.  With
    ``trivial``, (n, len(links)), a row also gets its trivial flag and
    strict: a nontrivial row that holds is strict when its margin exceeds
    :data:`NEAR_TRIVIAL_MARGIN`, and other rows carry None.
    """
    spectra = np.concatenate(links + (lam_branch,))
    table = entropies_of_spectra(spectra, functionals)
    head = len(spectra) - len(lam_branch)
    s_branch = np.zeros((len(functionals),) + probs.shape)
    s_branch[:, probs > 0.0] = table[:, head:]
    s_links = table[:, :head].reshape(len(functionals), len(links), len(probs))
    # chain[t, f, i] is S(link i - 1) of trial t under functional f
    chain = np.concatenate((expected_entropy_stack(probs, s_branch)[:, None], s_links), axis=1).transpose(2, 0, 1)
    columns = _grid_rows(
        (len(probs), len(functionals), len(links)), keep,
        trial=np.asarray(trials, dtype=int)[:, None, None],
        functional=np.array([f.label for f in functionals])[:, None],
        side=np.array(sides), lhs=chain[..., :-1], rhs=chain[..., 1:],
        **({} if trivial is None else {"trivial": trivial[:, None]}),
    )
    margin, holds = inequality_verdict(columns["lhs"], columns["rhs"], tol)
    columns.update(margin=margin, violation=~holds)
    if trivial is not None:
        judged = holds & ~columns["trivial"]
        strict = columns["strict"] = np.full(len(margin), None, dtype=object)
        strict[judged] = margin[judged] > NEAR_TRIVIAL_MARGIN
    return columns


def plan_chunks(trials: int, slots: int, dim: int) -> list[range]:
    """Split the trial axis into chunks for the stacked campaign kernels.

    A campaign's stacks hold ``slots`` complex (dim, dim) matrices per trial
    at most: a ``verify-s-theorems`` trial's state, probing, average, Gram
    and decohered state (its branches stream through in blocks of their
    own, :func:`_branch_blocks`), the padded mixture states, or the
    projector families with their pinched pieces.  Each chunk holds as many
    trials as keep those stacks within :data:`CHUNK_BYTES`, and at least
    one, as :func:`~decobs.stacks._blocks` plans them.
    """
    per_trial = slots * dim * dim * np.dtype(complex).itemsize
    return [range(trials)[block] for block in _blocks(trials, per_trial, CHUNK_BYTES)]


def _branch_blocks(trials: int, outcomes: int, dim: int) -> list[tuple[slice, slice]]:
    """Consecutive blocks of a chunk's (trial, outcome) branch axis, as (trials, outcomes) slices.

    A block holds as many whole trials' branch states, complex (dim, dim)
    matrices, as fit :data:`CHUNK_BYTES`.  A trial whose branches do not fit
    is cut into blocks of as many outcomes as fit, and at least one.  Both
    cuts are :func:`~decobs.stacks._blocks` plans: the trials by the bytes
    of their branches, then the outcomes by the bytes of one branch, which
    is one block of all outcomes whenever a whole trial fits.  The blocks
    run in trial-then-outcome order, so their branches, one block after
    another, are the chunk's branch stack in C order.
    """
    branch = dim * dim * np.dtype(complex).itemsize
    return [
        (block, part)
        for block in _blocks(trials, outcomes * branch, CHUNK_BYTES)
        for part in _blocks(outcomes, branch, CHUNK_BYTES)
    ]


def _pin(cpus) -> None:
    """Run this process on ``cpus`` only, where the host allows it.

    Pinning only spreads the work: a host that refuses it runs the same
    chunks, unpinned.
    """
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _claim(evaluate, chunks: list[range], first: int, step: int) -> list[tuple]:
    """Evaluate chunks ``first``, ``first + step``, … in order, up to the first that fails.

    Returns (index, result or exception) pairs.  The chunks left after a
    failing one come after it and cannot change the outcome.
    """
    done = []
    for index in range(first, len(chunks), step):
        try:
            done.append((index, evaluate(chunks[index])))
        except Exception as exc:
            done.append((index, exc))
            break
    return done


def _work(evaluate, chunks: list[range], first: int, step: int, cpu: int, out: int) -> None:
    """A forked worker: pin to ``cpu``, evaluate its stripe, pickle its pairs to ``out``, exit.

    It never returns and never writes to stdout: ``os._exit`` skips the
    parent's exit handlers and buffered output.  The exit code is 0 only
    when every pair was sent.
    """
    code = 1
    try:
        _pin({cpu})
        with open(out, "wb") as stream:
            pickle.dump(_claim(evaluate, chunks, first, step), stream)
        code = 0
    finally:
        os._exit(code)


def _map_chunks(evaluate, chunks: list[range]) -> list:
    """``[evaluate(chunk) for chunk in chunks]``, spread over the allowed CPUs.

    ``W = min(allowed CPUs, len(chunks) // 2)`` processes share the chunks:
    this one and ``W - 1`` forked workers, each pinned to its own allowed
    CPU.  With ``W < 2``, or without ``os.fork``, it is the plain list
    comprehension.  Process w (this one is w = 0) evaluates chunks w,
    w + W, w + 2W, … up to its first failing chunk, and this process also
    evaluates the stripes of the workers it could not fork.  Results come
    back in chunk order, and the first chunk without a result raises: its
    own exception, which is the one the serial loop raises, or
    ``ChildProcessError`` when its worker died.  Every worker is reaped
    before this returns or raises.
    """
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if can_fork else []
    workers = min(len(cpus), len(chunks) // 2)
    if workers < 2:
        return [evaluate(chunk) for chunk in chunks]
    # the first trial stream loads numpy.random (~15 ms); load it once, here
    import numpy.random  # noqa: F401

    pipes = {}  # worker pid -> read end of its result pipe
    sent = {}  # worker pid -> its pickled pairs
    try:
        for first, cpu in enumerate(cpus[1:workers], 1):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                # this process takes the stripes of the workers not forked
                os.close(out)
                os.close(into)
                break
            if pid == 0:
                _work(evaluate, chunks, first, workers, cpu, into)
            os.close(into)
            pipes[pid] = out
        # unpinned, a forked worker stays on this process's CPU
        _pin({cpus[0]})
        results = {}
        for first in (0, *range(len(pipes) + 1, workers)):
            results.update(_claim(evaluate, chunks, first, workers))
        for pid, out in pipes.items():
            with open(out, "rb", closefd=False) as stream:
                sent[pid] = stream.read()
    finally:
        for pid, out in pipes.items():
            if pid not in sent:
                # loaded only here: a call that kills no worker never pays for it
                import signal

                os.kill(pid, signal.SIGKILL)
            if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0:
                sent.pop(pid, None)
            os.close(out)
        _pin(cpus)
    for data in sent.values():
        results.update(pickle.loads(data))

    ordered = []
    for index, chunk in enumerate(chunks):
        if index not in results:
            raise ChildProcessError(
                f"a campaign worker exited without returning trials {chunk.start} to {chunk.stop - 1}"
            )
        if isinstance(results[index], Exception):
            raise results[index]
        ordered.append(results[index])
    return ordered


def _check_stacks(trials: range, *forms: tuple) -> None:
    """Raise unless an evaluator's stacks have the form their sampler gives them.

    Each form pairs a stack with its axes, one letter each: ``n`` holds one
    entry per trial, ``d`` the dim, and any other letter any number.  The
    axes ``p`` mark a list of block sizes, one partition of the dim per
    trial, each a non-empty sequence of positive integers, or
    "positive-block-sizes" is raised.  A form with a third entry, an axis
    letter, marks mixture sizes: ``(sizes, "n", "s")`` holds integers from 1
    to the length of the ``s`` axis, or "mixture-sizes" is raised.  A stack
    of the wrong rank, or dims that disagree, raise "stacks-same-dim"; ``n``
    axes that do not hold ``len(trials)`` raise "stacks-same-trials".
    """
    lengths, dims, named, bounded = set(), set(), {}, []
    integers = (int, np.integer)
    for stack, axes, *bound in forms:
        if axes == "p":
            for sizes in stack:
                sized = hasattr(sizes, "__len__") and len(sizes) > 0
                if not (sized and all(isinstance(s, integers) and s > 0 for s in sizes)):
                    raise ValidationError("positive-block-sizes", detail=f"{sizes}")
            lengths.add(len(stack))
            dims.update(sum(sizes) for sizes in stack)
            continue
        shape = np.shape(stack)
        if len(shape) != len(axes):
            raise ValidationError("stacks-same-dim", detail=f"a stack of shape {shape}, not ({', '.join(axes)})")
        lengths.update(n for n, axis in zip(shape, axes) if axis == "n")
        dims.update(n for n, axis in zip(shape, axes) if axis == "d")
        named.update(zip(axes, shape))
        if bound:
            bounded.append((np.asarray(stack), *bound))
    if lengths != {len(trials)}:
        raise ValidationError("stacks-same-trials", detail=f"{len(trials)} trials, stacks of {sorted(lengths)}")
    if len(dims) > 1:
        raise ValidationError("stacks-same-dim", detail=f"dims {sorted(dims)}")
    for sizes, axis in bounded:
        if not (np.issubdtype(sizes.dtype, np.integer) and ((sizes >= 1) & (sizes <= named[axis])).all()):
            raise ValidationError("mixture-sizes", detail=f"{sizes.tolist()} in {named[axis]} slots")


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


def _exact_check(name: str, residual: float) -> dict:
    """A counterexample check: it passes when the residual is within CONSISTENCY_TOL."""
    return {"name": name, "pass": residual <= CONSISTENCY_TOL, "residual": residual}


def run_counterexample(cfg: CampaignConfig) -> CampaignResult:
    """Reproduce one fixed inequality-breaking measurement exactly.

    Hard checks (all to CONSISTENCY_TOL): branch probabilities, live branch
    states, and the von Neumann entropy jump; plus the purity-preservation
    classification and the identity of the violated side.  The selected
    functional's entropies are reported alongside; the config holds exactly
    one, since the report's entropy fields name one.  The measurement's branch
    stacks are averaged and evaluated by the seeded campaigns' kernels.
    """
    from .povm import apply_povm, counterexample_1, counterexample_2, is_purity_preserving

    (functional,) = cfg.functionals
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

    probs, states, spectra = apply_povm(initial, measurement)
    live = probs > 0.0
    lam_avg = validate_stack(average_stack(probs[live], states[live]), "density")
    probabilities = probs.tolist()
    prob_residual = max(abs(p - e) for p, e in zip(probabilities, expected_probs))
    outcome_residual = matcore.max_abs(states[live] - expected_state)
    purity_preserving = is_purity_preserving(measurement)

    # von Neumann first, then the selected functional unless it is von Neumann
    used = [vn] if functional == vn else [vn, functional]
    sides = ("observation", "decoherence")
    columns = _chain_rows(used, range(1), probs[None], spectra, (initial.spectrum[None], lam_avg[None]), sides, cfg.tol)
    # per functional: observation (expected after <= before), then decoherence (before <= of average)
    lhs, rhs = columns["lhs"].tolist(), columns["rhs"].tolist()
    after, before, of_average = lhs[::2], rhs[::2], rhs[1::2]

    # the measured quantity on the violated side, against the initial entropy
    jump_value = after[0] if cfg.which == 1 else of_average[0]
    observed_violation = next((side for side, bad in zip(sides, columns["violation"][:2]) if bad), None)
    checks = [
        _exact_check("probabilities", prob_residual),
        _exact_check("outcome-states", outcome_residual),
        _exact_check("entropy-before", abs(before[0] - expected_before_vn)),
        _exact_check("entropy-jump", abs(jump_value - expected_jump_vn)),
        _exact_check("purity-preserving-classification", float(purity_preserving != expected_purity_preserving)),
        _exact_check("violated-side", float(observed_violation != violated_side)),
    ]

    flags = {"which": cfg.which, "entropy": functional.label, "tol": cfg.tol, "units": cfg.units}
    shown = _shown(flags, (before[-1], after[-1], of_average[-1]))
    fields = {
        "probabilities": probabilities,
        "expected_probabilities": expected_probs,
        "purity_preserving": purity_preserving,
        "expected_purity_preserving": expected_purity_preserving,
        "violated_side": violated_side,
        "entropy": {
            "functional": functional.label,
            **dict(zip(("before", "expected_after_observation", "of_average"), shown)),
        },
        "checks": checks,
    }
    checks_failed = sum(not c["pass"] for c in checks)
    return _campaign_result(cfg, flags, columns, fields, {"checks_failed": checks_failed}, checks_failed > 0, dim=2)


def run_povm_classify(cfg: CampaignConfig) -> CampaignResult:
    """Classify a measurement file as general or purity-preserving."""
    from . import serialize
    from .povm import ancilla_factors

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
    return CampaignResult(report, 0)



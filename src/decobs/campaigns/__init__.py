"""The core the campaigns share: the report builder, the chain kernel, the chunk planners and the chunk map.

Each subcommand's campaign is a module of this package, loaded by
:func:`decobs.cli.main` after it parses the arguments, so a call compiles
only the campaign it runs: :mod:`~decobs.campaigns.s_theorems`
(``verify-s-theorems``), :mod:`~decobs.campaigns.spectral`
(``majorization``), :mod:`~decobs.campaigns.holevo` (``holevo``), and
:mod:`~decobs.campaigns.measurements` (``counterexample`` and
``povm-classify``), as :data:`CAMPAIGN_MODULES` maps them.  A campaign
module imports this core and the kernels it runs, and no other campaign
module; this core imports none.  A campaign's settings are a
:class:`CampaignConfig`, which refuses every setting that no campaign can
run, so no campaign raises ``ValueError``; its outcome is a
:class:`CampaignResult`.  Both live here, under :mod:`decobs.cli`, so every
import points down the layers: the CLI imports this package, and no module
of it imports the CLI.

Each of the three seeded campaigns is a sampler, an evaluator and the chunk
map.  The sampler, ``sample_*(cfg, chunk)``, draws each trial t of a chunk
from stream (seed, t) in a fixed order and returns the chunk's stacks,
transformed and not validated, and any block sizes; the samplers are the
only code that reads :func:`~decobs.sampling.trial_streams`, which seeds
the chunk's streams itself, in bounded blocks, and hands each trial the
same generator, reset to that trial's stream, so a sampler finishes with a
trial's ``rng`` before it takes the next.  The evaluator,
``evaluate_*(cfg, trials, stacks)``, validates the stacks a sampler
returns for ``trials`` (their form first, :func:`_check_stacks`), applies
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
campaign runs from :func:`decobs.cli.main`, the objects left by import,
its campaign module's among them, are frozen (``gc.freeze``), so neither
this process's collections nor a forked worker's walk them.

This core calls the kernel layer only (:mod:`decobs.stacks`,
:mod:`decobs.entropy`, :mod:`decobs.matcore`), so importing it loads no
value type and no :mod:`decobs.majorization`.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
from datetime import datetime, timezone
from itertools import compress, repeat

import numpy as np

from .. import matcore
from ..entropy import (
    EntropyFunctional, entropies_of_spectra, expected_entropy_stack, inequality_verdict, parse_functional, to_bits,
)
from ..errors import ValidationError
from ..records import FrozenRecord, Record
from ..stacks import _blocks
from ..tolerances import INEQUALITY_TOL, NEAR_TRIVIAL_MARGIN

#: Budget, in bytes, of a chunk's stacks, and of each block of observation
#: branches.  At dim 4 a whole 200-trial ``verify-s-theorems`` campaign is one
#: chunk and one block; at dim 32 with 32 branches a chunk holds 4 trials
#: and a block the branches of one.
CHUNK_BYTES = 512 * 1024


#: The module of this package that runs each subcommand, by subcommand.
CAMPAIGN_MODULES = {
    "verify-s-theorems": "s_theorems",
    "majorization": "spectral",
    "counterexample": "measurements",
    "holevo": "holevo",
    "povm-classify": "measurements",
}


class CampaignConfig(FrozenRecord):
    """The settings of one campaign: a subcommand and its flags, as the CLI parses them."""

    __slots__ = (
        "command", "seed", "dim", "trials", "response_dim", "functionals", "tol", "units", "ensemble_size", "which",
        "povm_file",
    )

    def __init__(
        self,
        command: str,
        seed: int = 0,
        dim: int = 2,
        trials: int = 100,
        response_dim: int | None = None,
        functionals: tuple[str | EntropyFunctional, ...] = ("von-neumann",),
        tol: float = INEQUALITY_TOL,
        units: str = "nats",
        ensemble_size: int | None = None,
        which: int | None = None,
        povm_file: str | None = None,
    ):
        """Parse the entropy selectors, and reject a config no campaign can run, with the message the CLI prints.

        ``functionals`` holds the parsed :class:`~decobs.entropy.EntropyFunctional`
        values, which are all the campaigns read of the selectors.
        """
        if command not in CAMPAIGN_MODULES:
            raise ValueError(f"command must be one of {', '.join(CAMPAIGN_MODULES)}, got {command!r}")
        functionals = tuple(parse_functional(text) for text in functionals)
        self._set(command, seed, dim, trials, response_dim, functionals, tol, units, ensemble_size, which, povm_file)
        labels = [functional.label for functional in functionals]
        for i, label in enumerate(labels):
            # rows are told apart by label alone
            if label in labels[:i]:
                raise ValueError(f"duplicate entropy functional {label!r}")
        if seed < 0:
            raise ValueError("--seed must be >= 0")
        if dim < 1:
            raise ValueError("--dim must be >= 1")
        if trials < 1:
            raise ValueError("--trials must be >= 1")
        if response_dim is not None and response_dim < 1:
            raise ValueError("--response-dim must be >= 1")
        if ensemble_size is not None and ensemble_size < 1:
            raise ValueError("--ensemble-size must be >= 1")
        # inf would pass every check vacuously and nan would fail every one
        if not (tol > 0 and math.isfinite(tol)):
            raise ValueError("--tol must be positive and finite")
        if command == "counterexample" and which not in (1, 2):
            raise ValueError("--which must be 1 or 2")
        if units not in ("nats", "bits"):
            raise ValueError("--units must be nats or bits")
        # the report's entropy fields name one functional
        if command == "counterexample" and len(functionals) > 1:
            raise ValueError("counterexample takes at most one --entropy")
        if command == "counterexample" and not functionals:
            raise ValueError("counterexample needs one entropy functional, and none was given")


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
    # the first trial stream loads numpy.random (about 18 ms after decobs.cli); load it once, here
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

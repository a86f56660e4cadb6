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
povm-classify
    Structural purity-preservation classification of a measurement JSON file.

Reports stream to stdout as JSON (default) or CSV margin tables; errors go
to stderr.  Exit code 0 means no hard violation, 1 means at least one, and 2
signals usage or input errors, or a campaign that ran out of memory.
Rerunning with identical flags and seed reproduces the report byte for byte
(timestamp field aside).

The campaigns themselves live in :mod:`decobs.campaigns`; this module is
argparse, the config, dispatch and the two writers.  :func:`main` freezes
the garbage collector's heap (``gc.freeze``) after parsing the arguments and
unfreezes it before it returns, whatever the outcome: collections during
the campaign, and in the workers it forks, then skip the objects left by
import, while interpreter teardown walks them as before.  A library call of
a ``run_*`` function freezes nothing.  Both writers read the
row dicts the campaigns' report builder makes, and hand stdout blocks of
``_BLOCK_ROWS`` rows, one ``write`` a block, so no string of the whole
report is made.  CSV goes out through ``csv.writer``, and JSON through
:func:`write_json`, which gives the bytes of ``json.dumps(report,
indent=2)``: the report's head through ``json.dumps``, then each row
through json's C encoder.  Each writer loads its module when it writes, so
``import decobs.cli`` loads neither ``csv`` nor ``json``; nor does it load
``dataclasses``, since the config, the result and the kernels' values are
:mod:`decobs.records` classes.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import TYPE_CHECKING

from .campaigns import (
    ROW_KEYS, run_counterexample, run_holevo, run_majorization, run_povm_classify, run_s_theorems,
)
from .entropy import parse_functional
from .records import FrozenRecord
from .tolerances import INEQUALITY_TOL

if TYPE_CHECKING:
    from .campaigns import CampaignResult


class CampaignConfig(FrozenRecord):
    """The settings of one campaign: a subcommand and its flags, as the CLI parses them."""

    __slots__ = (
        "command", "seed", "dim", "trials", "response_dim", "functionals", "tol", "fmt", "units", "ensemble_size",
        "which", "povm_file",
    )

    def __init__(
        self,
        command: str,
        seed: int = 0,
        dim: int = 2,
        trials: int = 100,
        response_dim: int | None = None,
        functionals: tuple[str, ...] = ("von-neumann",),
        tol: float = INEQUALITY_TOL,
        fmt: str = "json",
        units: str = "nats",
        ensemble_size: int | None = None,
        which: int | None = None,
        povm_file: str | None = None,
    ):
        """Reject a config no campaign can run, with the message the CLI prints."""
        self._set(
            command, seed, dim, trials, response_dim, functionals, tol, fmt, units, ensemble_size, which, povm_file
        )
        labels = [parse_functional(text).label for text in functionals]
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


_DISPATCH = {
    "verify-s-theorems": run_s_theorems,
    "majorization": run_majorization,
    "counterexample": run_counterexample,
    "holevo": run_holevo,
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
    parser.add_argument("--tol", type=float, default=INEQUALITY_TOL, help="slack for hard checks (default: INEQUALITY_TOL, %(default)g)")
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


#: Rows per ``write`` of both writers; each write to an unbuffered stdout is a system call.
_BLOCK_ROWS = 256


def write_json(report: dict, stream) -> None:
    """Write ``json.dumps(report, indent=2, allow_nan=False)`` and a newline to ``stream``.

    ``rows`` must be the report's last key and each row a flat dict of
    scalars, as :func:`decobs.campaigns._campaign_result` makes them.  The
    rest of the report goes through ``json.dumps``; each row is encoded alone
    inside its fixed indent, and the rows are written in blocks of
    ``_BLOCK_ROWS``, one ``write`` a block, so no string of the whole report
    is made.  ``json`` is loaded here, as ``csv`` is by the CSV writer, so
    that a CSV report never loads it.
    """
    import json

    head = dict(report)
    rows = head.pop("rows")
    opening = "\n    {\n      " if rows else ""
    stream.write(json.dumps(head, indent=2, allow_nan=False)[:-2] + ',\n  "rows": [' + opening)
    # one flat row's lines inside its braces; json runs its C encoder when no indent is set
    encode = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False).encode
    separator = "\n    },\n    {\n      "
    for start in range(0, len(rows), _BLOCK_ROWS):
        # a block after the first opens with the separator that closes its predecessor
        lead = [""] if start else []
        stream.write(separator.join(lead + [encode(row)[1:-1] for row in rows[start : start + _BLOCK_ROWS]]))
    stream.write("\n    }\n  ]\n}\n" if rows else "]\n}\n")


def _emit(result: CampaignResult, cfg: CampaignConfig) -> None:
    if cfg.fmt == "csv":
        import csv
        import io

        # csv writes a float as its repr, as json does
        trivial = {None: "", True: "true", False: "false"}
        rows = result.report["rows"]
        # csv.writer writes row by row, so each block goes to a buffer; no rows still make a header
        for start in range(0, len(rows) or 1, _BLOCK_ROWS):
            block = io.StringIO()
            writer = csv.writer(block, lineterminator="\n")
            if not start:
                writer.writerow(ROW_KEYS[:-1])
            writer.writerows([*(row[key] for key in ROW_KEYS[:-2]), trivial[row["trivial"]]]
                             for row in rows[start : start + _BLOCK_ROWS])
            sys.stdout.write(block.getvalue())
    else:
        write_json(result.report, sys.stdout)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the campaign's collections, and those of the workers it forks, skip the objects made so far
    gc.freeze()
    try:
        return _run(args)
    finally:
        gc.unfreeze()


def _run(args: argparse.Namespace) -> int:
    try:
        cfg = _config_from_args(args)
        result = _DISPATCH[args.command](cfg)
    except (OSError, ValueError, MemoryError) as exc:
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

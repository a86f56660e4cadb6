"""Print one digest line per report of a fixed grid of decobs command lines.

Usage: PYTHONPATH=src python scripts/report_digests.py > digests.txt

Each line is ``exit sha256 argv``: the exit code of ``decobs.cli.main``, the
SHA-256 of its stdout with the JSON timestamp blanked, and the arguments.
The grid covers every subcommand: dims 1 to 16, two seeds, JSON and CSV,
nats and bits, default, unit and large response dims and ensemble sizes, all
seven entropy functionals, ``--tol 1e-30``, both counterexamples with each
functional, ``povm-classify`` on both counterexample exports, and the four
seeded campaigns at dim 3 on each of three seeds longer than 32 bits.  The
grid's last lines run each stacked campaign at dim 16 with 20 trials, which
the default chunk budget splits into several chunks, so chunk seams are
covered too, and then at dim 32 with 3 trials, the size of the benchmark's
largest workload, where each trial's observation branches are a block of
their own.  Two JSON lines follow with 2,000 trials each,
``verify-s-theorems --dim 2`` with all seven functionals and ``luders-equiv
--dim 3``, so the JSON writer writes thousands of rows in one report, and
then ``verify-s-theorems --dim 32 --trials 8``, two chunks.  The next
three lines (``PARALLEL``) plan at least four chunks each, so that on two
or more CPUs they run on two processes and the seams between workers are
covered: ``verify-s-theorems`` and ``holevo`` at dim 32, and
``majorization`` with a response dimension of 2,000, whose responses the
chunk planner counts.  The last line, ``verify-s-theorems --dim 40
--trials 2``, cuts each trial's branches into several blocks, so the seams
of a trial's average are covered.

The script takes no flags, so two versions of the package can be compared
by running it against each and diffing the outputs::

    PYTHONPATH=<other checkout>/src python scripts/report_digests.py > before.txt
    PYTHONPATH=src python scripts/report_digests.py > after.txt
    diff before.txt after.txt
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

import numpy as np

from decobs.cli import main as decobs_main
from decobs.povm import Povm, counterexample_1, counterexample_2
from decobs.serialize import povm_to_json
from decobs.states import ProjectorSet, basis_state, density_from_pure

DIMS = (1, 2, 3, 4, 8, 16)
SEEDS = (0, 7)
#: seeds of two, three and five 32-bit words: numpy pads the first two with
#: zeros to its four-word pool, and mixes the fifth word of the last past it
LONG_SEEDS = (2**32 + 1, 2**64 + 3, 2**128 + 5)
TRIALS = "4"
FUNCTIONALS = ("von-neumann", "linear", "renyi:0.5", "renyi:2", "log-det", "renyi:0.1", "renyi:3")
FORMATS = ("json", "csv")
UNITS = ("nats", "bits")
TIGHT_TOL = ("--tol", "1e-30")
MULTI_CHUNK = ("--dim", "16", "--trials", "20")
LARGE = ("--dim", "32", "--trials", "3")
MANY_ROWS = ("--trials", "2000")
EVERY = tuple(flag for name in FUNCTIONALS for flag in ("--entropy", name))
TWO_CHUNKS = ("verify-s-theorems", "--dim", "32", "--trials", "8", *EVERY, "--format", "json")
PARALLEL = (
    ("verify-s-theorems", "--dim", "32", "--trials", "16", *EVERY, "--format", "json"),
    ("holevo", "--dim", "32", "--trials", "40", *EVERY, "--format", "csv", "--units", "bits"),
    ("majorization", "--dim", "2", "--response-dim", "2000", "--trials", "200", "--format", "json"),
)
SPLIT_TRIALS = ("verify-s-theorems", "--dim", "40", "--trials", "2", *EVERY, "--format", "json")
POVM_FILES = {
    "counterexample-1.json": lambda: counterexample_1()[0],
    "counterexample-2.json": lambda: counterexample_2()[0],
    # the probing |i>|0> -> |i>|i> of a qubit, dilated as a CNOT with pointer projectors 1 (x) |k><k|
    "probing.json": lambda: Povm(
        2,
        2,
        density_from_pure(basis_state(2, 0)),
        np.eye(4)[[0, 1, 3, 2]].astype(complex),
        ProjectorSet((np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex))),
    ),
}

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _entropy_flags(functionals) -> list[str]:
    return [flag for name in functionals for flag in ("--entropy", name)]


def grid() -> list[list[str]]:
    """Every command line of the grid, in a fixed order."""
    configs = []
    every = list(EVERY)
    for dim in DIMS:
        for seed in SEEDS:
            seeded = ["--dim", str(dim), "--seed", str(seed), "--trials", TRIALS]
            for command, option, sizes in (
                ("verify-s-theorems", "--response-dim", (1, dim + 3)),
                ("holevo", "--ensemble-size", (1, 7)),
            ):
                for size in (None, *sizes):
                    sized = [] if size is None else [option, str(size)]
                    for fmt in FORMATS:
                        for units in UNITS:
                            configs.append([command, *seeded, *sized, *every, "--format", fmt, "--units", units])
            for response in (None, 1, dim + 3):
                sized = [] if response is None else ["--response-dim", str(response)]
                for fmt in FORMATS:
                    configs.append(["majorization", *seeded, *sized, "--format", fmt])
            for fmt in FORMATS:
                configs.append(["luders-equiv", *seeded, "--format", fmt])
        configs.append(["majorization", "--dim", str(dim), "--trials", TRIALS, *TIGHT_TOL])
    for seed in LONG_SEEDS:
        seeded = ["--dim", "3", "--seed", str(seed), "--trials", TRIALS]
        for command in ("verify-s-theorems", "holevo", "majorization", "luders-equiv"):
            configs.append([command, *seeded, *(every if command in ("verify-s-theorems", "holevo") else [])])
    for command in ("verify-s-theorems", "holevo"):
        for name in FUNCTIONALS:
            configs.append([command, "--dim", "3", "--trials", TRIALS, *_entropy_flags([name])])
        for dim in (2, 4):
            for fmt in FORMATS:
                configs.append([command, "--dim", str(dim), "--trials", TRIALS, *every, *TIGHT_TOL, "--format", fmt])
    for which in ("1", "2"):
        configs.append(["counterexample", "--which", which])
        for name in FUNCTIONALS:
            for fmt in FORMATS:
                for units in UNITS:
                    configs.append(["counterexample", "--which", which, "--entropy", name, "--format", fmt, "--units", units])
        configs.append(["counterexample", "--which", which, *TIGHT_TOL])
        configs.append(["counterexample", "--which", which, *TIGHT_TOL, "--format", "csv"])
    for name in POVM_FILES:
        configs.append(["povm-classify", name])
    # holevo's default mixtures are small enough for one chunk at this size
    for command, sized in (
        ("verify-s-theorems", every),
        ("holevo", ["--ensemble-size", "7", *every]),
        ("majorization", []),
        ("luders-equiv", []),
    ):
        for fmt in FORMATS:
            configs.append([command, *MULTI_CHUNK, *sized, "--format", fmt])
    for command, sized in (
        ("verify-s-theorems", every),
        ("verify-s-theorems", ["--response-dim", "35", *every]),
        ("holevo", ["--ensemble-size", "7", *every]),
        ("majorization", []),
        ("luders-equiv", []),
    ):
        configs.append([command, *LARGE, *sized, "--format", "json"])
    configs.append(["verify-s-theorems", "--dim", "2", *MANY_ROWS, *every, "--format", "json"])
    configs.append(["luders-equiv", "--dim", "3", *MANY_ROWS, "--format", "json"])
    configs.append(list(TWO_CHUNKS))
    configs.extend(list(argv) for argv in PARALLEL)
    configs.append(list(SPLIT_TRIALS))
    return configs


def digest(argv: list[str]) -> str:
    """``exit sha256 argv`` of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = decobs_main(argv)
    text = _TIMESTAMP.sub('"timestamp": ""', out.getvalue())
    return f"{code} {hashlib.sha256(text.encode()).hexdigest()} {' '.join(argv)}"


def main() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        # the measurement files are named relative to the working directory,
        # so the reports, which echo the path, do not depend on where it is
        os.chdir(scratch)
        try:
            for name, build in POVM_FILES.items():
                with open(name, "w") as out:
                    json.dump(povm_to_json(build()), out)
            lines = [digest(argv) for argv in grid()]
        finally:
            os.chdir(start)
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

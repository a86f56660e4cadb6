"""The benchmark's workloads: one fixed ``decobs`` command line each.

Every child process of a run executes one of these commands at the
workload's fixed size; only the seed changes between children.  The sizes
are chosen so that one child takes 0.5-1 s on a 2-CPU host, which keeps
interpreter start-up and import a visible but minor share of its wall time.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The five functionals every entropy workload evaluates.
FUNCTIONALS = ("von-neumann", "linear", "renyi:0.5", "renyi:2", "log-det")

#: Seed of the digest preflight; its report is compared with ``digests.json``.
DIGEST_SEED = 0

#: Trials of the digest preflight (small: it is untimed).
DIGEST_TRIALS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    dim: int
    trials: int
    functionals: tuple[str, ...]
    sides: tuple[str, ...]
    fmt: str
    extra: tuple[str, ...] = ()

    def argv(self, seed: int, trials: int | None = None) -> list[str]:
        """The ``decobs`` arguments of one call of this workload."""
        args = [self.command, "--dim", str(self.dim), "--trials", str(trials or self.trials), "--seed", str(seed)]
        for functional in self.functionals:
            args += ["--entropy", functional]
        return args + ["--format", self.fmt, *self.extra]

    def expected_rows(self, trials: int) -> int:
        """Rows of a report: trials x functionals x inequality sides."""
        return trials * max(1, len(self.functionals)) * len(self.sides)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "probe-small", "verify-s-theorems", dim=4, trials=200,
            functionals=FUNCTIONALS, sides=("observation", "decoherence"), fmt="json",
        ),
        Workload(
            "probe-large", "verify-s-theorems", dim=32, trials=30,
            functionals=FUNCTIONALS, sides=("observation", "decoherence"), fmt="json",
        ),
        Workload(
            "dominance", "majorization", dim=8, trials=150,
            functionals=(), sides=("schur", "pinching-upper", "pinching-lower", "fan"), fmt="json",
        ),
        Workload(
            "mixture-csv", "holevo", dim=8, trials=200,
            functionals=FUNCTIONALS, sides=("holevo",), fmt="csv", extra=("--units", "bits"),
        ),
    )
}

#: The untimed preflight calls: both exact counterexamples must pass every check.
PREFLIGHT = (["counterexample", "--which", "1"], ["counterexample", "--which", "2"])


def child_seed(run_seed: int, index: int) -> int:
    """Seed of the ``index``-th timed call of a run (non-negative, distinct per index)."""
    return (run_seed * 1000 + index) % (1 << 63)

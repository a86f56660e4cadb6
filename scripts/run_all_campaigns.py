"""Run every verification campaign and write JSON reports to an output directory.

Usage: python scripts/run_all_campaigns.py [--seed N] [--trials N] [--dims N [N ...]] [--outdir DIR]
"""

import argparse
import sys
from pathlib import Path

from decobs.campaigns import CampaignConfig
from decobs.cli import run_counterexample, run_holevo, run_majorization, run_s_theorems, write_json
from decobs.entropy import builtin_functionals

FUNCTIONALS = tuple(f.label for f in builtin_functionals())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 8])
    parser.add_argument("--outdir", default="reports")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failures = 0

    def record(name, result):
        nonlocal failures
        path = outdir / f"{name}.json"
        with path.open("w") as out:
            write_json(result.report, out)
        status = "ok" if result.exit_code == 0 else "VIOLATED"
        print(f"{name:<28} {status:<9} -> {path}")
        failures += result.exit_code != 0

    for dim in args.dims:
        cfg = CampaignConfig(
            command="verify-s-theorems", seed=args.seed, dim=dim,
            trials=args.trials, functionals=FUNCTIONALS,
        )
        record(f"s-theorems-dim{dim}", run_s_theorems(cfg))

        cfg = CampaignConfig(command="majorization", seed=args.seed, dim=dim, trials=args.trials)
        record(f"majorization-dim{dim}", run_majorization(cfg))

        cfg = CampaignConfig(
            command="holevo", seed=args.seed, dim=dim, trials=args.trials, functionals=FUNCTIONALS
        )
        record(f"holevo-dim{dim}", run_holevo(cfg))

    for which in (1, 2):
        cfg = CampaignConfig(command="counterexample", which=which)
        record(f"counterexample-{which}", run_counterexample(cfg))

    print(f"\n{failures} campaign(s) with violations")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Sweep the response dimension from phase-only probing to full readout.

The response dimension controls how much the environment or observer can
learn: 1 gives trivial (phase-only) probing with margins pinned near zero,
and large values approach a complete measurement.  Emits a plot-ready CSV
of mean inequality margins per (response_dim, functional, side) to stdout.

Usage: python scripts/sweep_response_dim.py [--dim N] [--max-response-dim N] [--trials N] [--seed N]
"""

import argparse
import csv
import sys

from decobs.campaigns import CampaignConfig
from decobs.cli import run_s_theorems
from decobs.entropy import builtin_functionals

FUNCTIONALS = tuple(f.label for f in builtin_functionals())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--max-response-dim", type=int, default=8)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["response_dim", "functional", "side", "mean_margin", "trivial_fraction"])
    for response_dim in range(1, args.max_response_dim + 1):
        cfg = CampaignConfig(
            command="verify-s-theorems",
            seed=args.seed,
            dim=args.dim,
            trials=args.trials,
            response_dim=response_dim,
            functionals=FUNCTIONALS,
        )
        result = run_s_theorems(cfg)
        for functional in FUNCTIONALS:
            for side in ("observation", "decoherence"):
                # a non-finite margin is spelled as a string in the report
                rows = [
                    r for r in result.report["rows"]
                    if r["functional"] == functional and r["side"] == side and isinstance(r["margin"], float)
                ]
                if not rows:
                    continue
                mean_margin = sum(r["margin"] for r in rows) / len(rows)
                trivial_fraction = sum(r["trivial"] for r in rows) / len(rows)
                writer.writerow(
                    [response_dim, functional, side, f"{mean_margin:.6e}", f"{trivial_fraction:.3f}"]
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())

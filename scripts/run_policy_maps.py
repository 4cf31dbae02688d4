"""Solve the three benchmark systems (beta = 0.9, 1.0, 1.1) on the standard
wearing channel and export policy/value grids plus the frontier comparison
table. The policy CSVs plot directly as action heatmaps over the
(channel age, information age) grid.

Usage: python scripts/run_policy_maps.py [--out DIR] [--jobs N]
"""

import argparse
import sys
from pathlib import Path

from wearsched.cli import main as cli_main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark-stable.yaml"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/policy-maps")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    return cli_main(
        [
            "sweep",
            "--config", str(CONFIG),
            "--axis", "beta",
            "--values", "0.9,1.0,1.1",
            "--out", args.out,
            "--jobs", str(args.jobs),
        ]
    )


if __name__ == "__main__":
    sys.exit(main())

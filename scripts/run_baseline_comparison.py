"""Compare the optimal policy against the transmit-always and
boundary-renewal baselines by long simulation on the stable benchmark
(beta = 0.9), reporting per-epoch and per-slot averages with batch-means
standard errors.

Usage: python scripts/run_baseline_comparison.py [--out DIR] [--epochs N]
"""

import argparse
import sys
from pathlib import Path

from wearsched import (
    boundary_renewal,
    build_mdp,
    rvi_solve,
    simulate,
    transmit_always,
)
from wearsched.artifacts import write_json
from wearsched.config import load_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark-stable.yaml"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/baselines")
    parser.add_argument("--epochs", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    cfg = load_config(CONFIG)
    model, channel, trunc = cfg.system, cfg.channel, cfg.truncation
    mdp = build_mdp(model, channel, trunc)
    res = rvi_solve(mdp)

    policies = {
        "optimal": res.policy,
        "transmit-always": transmit_always(trunc),
        "boundary-renewal": boundary_renewal(model, channel, trunc),
    }
    rows = {}
    for name, pol in policies.items():
        stats = simulate(mdp, pol, epochs=args.epochs, seed=args.seed)
        rows[name] = {
            "per_epoch_avg_cost": stats.per_epoch_avg_cost,
            "per_slot_avg_cost": stats.per_slot_avg_cost,
            "std_error": stats.std_error,
            "action_counts": stats.action_counts.tolist(),
        }
        print(
            f"{name:17s} per-epoch {stats.per_epoch_avg_cost:10.4f} "
            f"(se {stats.std_error:.4f})  per-slot {stats.per_slot_avg_cost:10.4f}",
            file=sys.stderr,
        )
    print(f"{'lambda*':17s} {res.gain:10.4f}", file=sys.stderr)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "baselines.json", {"lambda": res.gain, "epochs": args.epochs, "policies": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())

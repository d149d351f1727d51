#!/usr/bin/env python3
"""Tail estimates for the weight-doubling stage on a stored instance.

Runs fixed-horizon instrumented traces and prints, for each round count
ell, the measured probability that the first ell rounds all saw
violators against its ceiling min(1, n alpha^ell), plus the mean total
weight at the checkpoints ell = d, 2d, ... against n (1 + d/r)^ell.
"""

import argparse

from vspace.harness import sa_experiment
from vspace.instances import load_space


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file", help="violator-table or point-set JSON")
    ap.add_argument("--traces", type=int, default=10_000)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--trials", type=int, default=100,
                    help="ordinary terminating runs for the round-count row")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--c", type=float, default=2.0)
    ap.add_argument("--checkpoints", type=int, default=3)
    args = ap.parse_args()

    space = load_space(args.file)
    rep = sa_experiment(space, args.trials, args.seed, c=args.c,
                        forever_traces=args.traces,
                        forever_rounds=args.rounds,
                        weight_checkpoints=args.checkpoints)

    cfg, s = rep["config"], rep["summary"]
    print(f"n={cfg['n']} d={cfg['d']} r={cfg['r']} alpha={cfg['alpha']:.6f}")
    print(f"terminating runs: mean rounds {s['rounds_mean']:.2f} "
          f"(budget {s['round_bound']:.2f}), none stalled\n")

    print(f"{'ell':>4} {'Pr[first ell controversial]':>28} {'ceiling':>9} {'+3sigma':>9}")
    for row in rep["tail"]:
        flag = "" if row["pass"] else "  <-- exceeded"
        print(f"{row['ell']:>4} {row['measured']:>28.4f} "
              f"{row['bound']:>9.4f} {row['bound'] + row['slack']:>9.4f}{flag}")

    if rep.get("weight_growth"):
        print(f"\n{'ell':>4} {'mean total weight':>18} {'ceiling*1.05':>13}")
        for row in rep["weight_growth"]:
            print(f"{row['ell']:>4} {row['measured']:>18.2f} {row['bound']:>13.2f}")

    raise SystemExit(0 if rep["pass"] else 1)


if __name__ == "__main__":
    main()

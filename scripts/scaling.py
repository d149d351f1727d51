#!/usr/bin/env python3
"""Milliseconds and oracle calls per solve as n grows, for all three solvers.

For each n in 250, 1,000, 4,000, 16,000 and 64,000 and each dimension (2
and 3), the script draws seeded uniform clouds and solves each one with
german bfa, german sa and swiss, each solve on a fresh SebSpace, so no
memo carries over. A row shows the median ms per solve and the mean
oracle calls per solve (violators calls the solver makes; the handle's
own call inside extreme_candidates is not one). For a linear-time solver
ms per n levels off as n grows.

The last line is one sha256 over every solver output: basis, each round
record, the trace flags, the round count and the oracle calls. Two
checkouts agree byte for byte on these instances when they print the same
digest. Compare two checkouts by running the script against each:

    PYTHONPATH=src python3 scripts/scaling.py [--json rows.json]
"""

import argparse
import hashlib
import json
import statistics
import time

from vspace.algorithms import german_algorithm, swiss_algorithm
from vspace.core import ViolatorSpace
from vspace.instances import SebSpace, generate

SIZES = (250, 1000, 4000, 16000, 64000)
DIMS = (2, 3)
CLOUDS = 5      # per size and dimension
SOLVERS = {
    "german bfa": lambda space, seed: german_algorithm(space, seed, inner="bfa"),
    "german sa": lambda space, seed: german_algorithm(space, seed, inner="sa"),
    "swiss": swiss_algorithm,
}


class Counted(ViolatorSpace):
    """Forwards a handle and counts the violators calls made on it."""

    def __init__(self, space: ViolatorSpace):
        self.space = space
        self.n = space.n
        self.dim_hint = space.dim_hint
        self.calls = 0

    def violators(self, subset: int) -> int:
        self.calls += 1
        return self.space.violators(subset)

    def extreme_candidates(self, subset: int) -> int:
        return self.space.extreme_candidates(subset)


def record(result, calls: int) -> str:
    tr = result.trace
    rounds = ";".join(f"{r.sample:x},{r.violators:x},{r.weight_total}" for r in tr.rounds)
    return (f"{result.basis:x}|{rounds}|{tr.terminated_cleanly}|{tr.delegated}|"
            f"{tr.ground_size}|{tr.slips}|{result.calls}|{calls}\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", help="also write the rows and the digest to this file")
    args = ap.parse_args()

    digest = hashlib.sha256()
    rows = []
    print(f"{'dim':>3} {'n':>6} {'solver':<10} {'ms/solve':>9} {'us/n':>6} {'calls':>7}")
    for dim in DIMS:
        for n in SIZES:
            instances = [generate("uniform-square", {"n": n, "dim": dim}, seed=1000 * n + k)
                         for k in range(CLOUDS)]
            for name, solve in SOLVERS.items():
                times, calls = [], []
                for k, inst in enumerate(instances):
                    space = Counted(SebSpace(inst))
                    t = time.perf_counter()
                    result = solve(space, 7 + k)
                    times.append(time.perf_counter() - t)
                    calls.append(space.calls)
                    digest.update(f"{dim} {n} {name} {k} ".encode())
                    digest.update(record(result, space.calls).encode())
                ms = 1e3 * statistics.median(times)
                row = {"dim": dim, "n": n, "solver": name, "ms_per_solve": round(ms, 3),
                       "oracle_calls": statistics.mean(calls)}
                rows.append(row)
                print(f"{dim:>3} {n:>6} {name:<10} {ms:>9.2f} {1e3 * ms / n:>6.2f} "
                      f"{row['oracle_calls']:>7.1f}")
    print(f"sha256 {digest.hexdigest()}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"clouds": CLOUDS, "rows": rows, "sha256": digest.hexdigest()}, fh, indent=1)


if __name__ == "__main__":
    main()

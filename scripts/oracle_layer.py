#!/usr/bin/env python3
"""Microseconds per SebSpace.violators call, by subset size and dimension.

For each dimension (2 and 3) and subset size (16, 50 and 400), the script
asks V of random subsets of seeded uniform clouds of 1024 points, one
fresh handle per cloud and size, so the ball memo starts empty. A pass
times every call once; the table shows, over the passes, the median and
the spread of a pass's mean time per call. Compare two checkouts by
running the script against each:

    PYTHONPATH=src python3 scripts/oracle_layer.py
"""

import random
import statistics
import time

from vspace.instances import SebSpace, generate

DIMS = (2, 3)
SIZES = (16, 50, 400)
N = 1024
CLOUDS = 4      # per dimension
SUBSETS = 25    # per cloud and size
PASSES = 5


def one_pass(clouds, subsets) -> float:
    """Mean seconds per violators call over every (cloud, subset) pair."""
    total, calls = 0.0, 0
    for inst, masks in zip(clouds, subsets):
        space = SebSpace(inst)
        for g in masks:
            t = time.perf_counter()
            space.violators(g)
            total += time.perf_counter() - t
        calls += len(masks)
    return total / calls


def main() -> None:
    print(f"{'dim':>3} {'size':>5} {'calls':>6} {'us/call':>9} {'min':>9} {'max':>9}")
    for dim in DIMS:
        clouds = [generate("uniform-square", {"n": N, "dim": dim}, 100 + dim * 10 + k)
                  for k in range(CLOUDS)]
        for size in SIZES:
            rng = random.Random(1000 + dim * 100 + size)
            subsets = [[sum(1 << i for i in rng.sample(range(N), size))
                        for _ in range(SUBSETS)] for _ in clouds]
            us = [one_pass(clouds, subsets) * 1e6 for _ in range(PASSES)]
            print(f"{dim:>3} {size:>5} {CLOUDS * SUBSETS:>6} "
                  f"{statistics.median(us):>9.1f} {min(us):>9.1f} {max(us):>9.1f}")


if __name__ == "__main__":
    main()

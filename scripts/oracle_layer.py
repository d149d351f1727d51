#!/usr/bin/env python3
"""Microseconds per SebSpace.violators call, by subset size and dimension.

For each dimension (2 and 3) and subset size (16, 50 and 400), the script
asks V of random subsets of seeded uniform clouds of 1024 points, one
fresh handle per cloud and size, so the memos start empty (the "cold"
rows). The "loo" row times the leave-one-out sweep of basis search on a
random 50-point G: V(G), then V(G minus s) for every s in G, all on one
handle that is fresh at the start of the sweep, so later calls meet the
balls and masks of earlier ones. A pass times every call once; the table
shows, over the passes, the median and the spread of a pass's mean time
per call. Compare two checkouts by running the script against each:

    PYTHONPATH=src python3 scripts/oracle_layer.py
"""

import random
import statistics
import time

from vspace.instances import SebSpace, generate
from vspace.subsets import elements

DIMS = (2, 3)
SIZES = (16, 50, 400)
N = 1024
CLOUDS = 4      # per dimension
SUBSETS = 25    # per cloud and size
SWEEP_SIZE = 50
SWEEPS = 5      # leave-one-out sweeps per cloud
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


def sweep_pass(clouds, sets) -> float:
    """Mean seconds per violators call over leave-one-out sweeps, one fresh
    handle per sweep: V(G), then V(G minus s) for every s in G."""
    total, calls = 0.0, 0
    for inst, gs in zip(clouds, sets):
        for g in gs:
            space = SebSpace(inst)
            for s in [0] + [1 << i for i in elements(g)]:
                t = time.perf_counter()
                space.violators(g ^ s)
                total += time.perf_counter() - t
                calls += 1
    return total / calls


def row(kind: str, dim: int, size: int, calls: int, us: list[float]) -> None:
    print(f"{kind:>4} {dim:>3} {size:>5} {calls:>6} "
          f"{statistics.median(us):>9.1f} {min(us):>9.1f} {max(us):>9.1f}")


def main() -> None:
    print(f"{'kind':>4} {'dim':>3} {'size':>5} {'calls':>6} {'us/call':>9} {'min':>9} {'max':>9}")
    for dim in DIMS:
        clouds = [generate("uniform-square", {"n": N, "dim": dim}, 100 + dim * 10 + k)
                  for k in range(CLOUDS)]
        for size in SIZES:
            rng = random.Random(1000 + dim * 100 + size)
            subsets = [[sum(1 << i for i in rng.sample(range(N), size))
                        for _ in range(SUBSETS)] for _ in clouds]
            us = [one_pass(clouds, subsets) * 1e6 for _ in range(PASSES)]
            row("cold", dim, size, CLOUDS * SUBSETS, us)
        rng = random.Random(2000 + dim)
        sets = [[sum(1 << i for i in rng.sample(range(N), SWEEP_SIZE))
                 for _ in range(SWEEPS)] for _ in clouds]
        us = [sweep_pass(clouds, sets) * 1e6 for _ in range(PASSES)]
        row("loo", dim, SWEEP_SIZE, CLOUDS * SWEEPS * (SWEEP_SIZE + 1), us)


if __name__ == "__main__":
    main()

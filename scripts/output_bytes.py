#!/usr/bin/env python3
"""Bytes of memory that one solver result keeps, measured with tracemalloc.

Three cases, shaped like the benchmark's solver workloads: german (inner
bfa) on 400 uniform planar points, swiss on 1024, and german on 30
uniform planar points each present twice (n = 60). Each case solves
seeded clouds, one fresh SebSpace per solve, keeps every result in a
list made beforehand and drops the handle, as the benchmark's runner
does. The clouds and the list are allocated before tracing starts, so
neither is counted; what stays allocated after the last solve is the
results, their traces and the ints they hold, plus whatever the first
solves allocate once (caches, interned objects).

Each case runs at two result counts, the smaller run solving the first
clouds of the larger. A row shows the slope of the traced bytes between
them, the bytes per kept result, which leaves the one-time bytes out.
Allocator caches that outlive a solve make the slope vary between runs
of one checkout, for swiss by about 15 bytes per result, so compare
several runs. Compare two checkouts by running the script against each:

    PYTHONPATH=src python3 scripts/output_bytes.py
"""

import gc
import tracemalloc

import numpy as np

from vspace.algorithms import german_algorithm, swiss_algorithm
from vspace.instances import SebSpace, make_seb

COUNTS = (100, 1000)    # results per run, for the fit
CASES = {       # name: (solve, n, every point doubled)
    "german bfa, 400 points": (lambda space, seed: german_algorithm(space, seed, inner="bfa"),
                               400, False),
    "swiss, 1024 points": (swiss_algorithm, 1024, False),
    "german bfa, 30 points doubled": (lambda space, seed: german_algorithm(space, seed, inner="bfa"),
                                      60, True),
}


def cloud(n: int, doubled: bool, rng: np.random.Generator) -> np.ndarray:
    if not doubled:
        return rng.random((n, 2))
    half = rng.random((n // 2, 2))
    return np.concatenate([half, half])[rng.permutation(n)]


def traced_bytes(solve, n: int, doubled: bool, seed: int, results: int) -> int:
    """Traced bytes still allocated after solving and keeping `results`
    seeded clouds; each cloud and its seed are drawn in turn, so a run is
    a prefix of any longer one."""
    rng = np.random.default_rng(seed)
    instances, seeds = [], []
    for _ in range(results):
        instances.append(make_seb(cloud(n, doubled, rng)))
        seeds.append(int(rng.integers(0, 2**63)))
    kept = [None] * results
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, (inst, s) in enumerate(zip(instances, seeds)):
            kept[i] = solve(SebSpace(inst), s)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return after - before


def main() -> None:
    lo, hi = COUNTS
    print(f"{'case':<30} {'results':>9} {'bytes/result':>12}")
    for k, (name, (solve, n, doubled)) in enumerate(CASES.items()):
        small, large = (traced_bytes(solve, n, doubled, 24 + k, m) for m in COUNTS)
        print(f"{name:<30} {f'{lo}, {hi}':>9} {(large - small) / (hi - lo):>12.0f}")


if __name__ == "__main__":
    main()

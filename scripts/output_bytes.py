#!/usr/bin/env python3
"""Bytes of memory that one solver result keeps, measured with tracemalloc.

Three cases, shaped like the benchmark's solver workloads: german (inner
bfa) on 400 uniform planar points, swiss on 1024, and german on 30
uniform planar points each present twice (n = 60). Each case solves
RESULTS seeded clouds, one fresh SebSpace per solve, keeps every result
in a list made beforehand and drops the handle, as the benchmark's runner
does. A row shows the traced bytes still allocated after the last solve,
over the results kept: the result, its trace and the ints they hold. The
clouds and the list are allocated before tracing starts, so neither is
counted. Compare two checkouts by running the script against each:

    PYTHONPATH=src python3 scripts/output_bytes.py
"""

import gc
import tracemalloc

import numpy as np

from vspace.algorithms import german_algorithm, swiss_algorithm
from vspace.instances import SebSpace, make_seb

RESULTS = 200   # per case
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


def bytes_per_result(solve, n: int, doubled: bool, seed: int) -> float:
    rng = np.random.default_rng(seed)
    instances = [make_seb(cloud(n, doubled, rng)) for _ in range(RESULTS)]
    seeds = [int(s) for s in rng.integers(0, 2**63, RESULTS)]
    kept = [None] * RESULTS
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
    return (after - before) / RESULTS


def main() -> None:
    print(f"{'case':<30} {'results':>7} {'bytes/result':>12}")
    for k, (name, (solve, n, doubled)) in enumerate(CASES.items()):
        print(f"{name:<30} {RESULTS:>7} {bytes_per_result(solve, n, doubled, 24 + k):>12.0f}")


if __name__ == "__main__":
    main()

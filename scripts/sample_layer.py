#!/usr/bin/env python3
"""Microseconds per algorithms.weighted_sample call, by n and slips r.

The (n, r) pairs are calls the solvers make on planar points (d = 2):
German's first sample on 60 and 400 points (r = 11 and 29), and one
swiss round on 1,024 and 64,000 points (r = 8). The weights are 2^k with
k uniform in 0..3, as after a few doubling rounds. Every call is timed
with the weights in two forms: a list of Python ints, and an int64 array,
which is what the solvers pass. A pass makes the same seeded calls in
each form; the table shows, over the passes, the median and the spread
of a pass's mean time per call. Both forms must draw the same masks, and
the last line is one sha256 over every mask drawn, so two checkouts that
print the same digest drew the same samples. Compare two checkouts by
running the script against each:

    PYTHONPATH=src python3 scripts/sample_layer.py
"""

import hashlib
import random
import statistics
import time

import numpy as np

from vspace import algorithms

PAIRS = ((60, 11), (400, 29), (1024, 8), (64000, 8))
PASSES = 7
WORK = 400_000      # calls per pass times n


def one_pass(weights, r: int, calls: int, seed: int) -> tuple[float, list[int]]:
    """Mean seconds per call over `calls` seeded calls, and the masks."""
    rng = random.Random(seed)
    sample = algorithms.weighted_sample
    t = time.perf_counter()
    masks = [sample(weights, r, rng) for _ in range(calls)]
    return (time.perf_counter() - t) / calls, masks


def main() -> None:
    digest = hashlib.sha256()
    print(f"{'n':>6} {'r':>3} {'calls':>6} {'list us':>9} {'spread':>13} "
          f"{'int64 us':>9} {'spread':>13}")
    for n, r in PAIRS:
        gen = random.Random(n)
        as_list = [1 << gen.randrange(4) for _ in range(n)]
        forms = {"list": as_list, "int64": np.array(as_list, np.int64)}
        calls = max(20, WORK // n)
        times = {form: [] for form in forms}
        for p in range(PASSES):
            drawn = {}
            for form, weights in forms.items():
                per_call, drawn[form] = one_pass(weights, r, calls, seed=p)
                times[form].append(per_call * 1e6)
            if drawn["list"] != drawn["int64"]:
                raise SystemExit(f"n={n} r={r}: the list and int64 forms drew different masks")
            digest.update(f"{n} {r} {p} ".encode())
            digest.update(",".join(f"{m:x}" for m in drawn["list"]).encode())
        cells = []
        for form in forms:
            us = times[form]
            cells.append(f"{statistics.median(us):>9.2f} {min(us):>6.2f}-{max(us):<6.2f}")
        print(f"{n:>6} {r:>3} {calls:>6} {' '.join(cells)}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Milliseconds per exact check on stored tables, by ground-set size.

For n = 11, 12 and 14, the script builds seeded random interval-partition
tables (explicit handles, as `vspace check` loads them) and times, per
table, `combinatorial_dimension`, `exact_sampling_stats` at r = n // 2,
and `verify_sampling_lemma` with the dimension supplied, as the check
command calls it. A pass times every table once; the table shows, over
the passes, the median and the spread of a pass's mean time per call.
Compare two checkouts by running the script against each:

    PYTHONPATH=src python3 scripts/check_layer.py
"""

import random
import statistics
import time

from vspace.core import combinatorial_dimension
from vspace.harness import exact_sampling_stats, verify_sampling_lemma
from vspace.hypercube import partition_to_space, random_partition

SIZES = (11, 12, 14)
TABLES = 4      # per size
PASSES = 5
CHECKS = {
    "combinatorial_dimension": combinatorial_dimension,
    "exact_sampling_stats": lambda space: exact_sampling_stats(space, space.n // 2),
    "verify_sampling_lemma": lambda space: verify_sampling_lemma(space, d=space.dim_hint),
}


def one_pass(spaces, check) -> float:
    """Mean seconds per call of `check` over the spaces."""
    total = 0.0
    for space in spaces:
        t = time.perf_counter()
        check(space)
        total += time.perf_counter() - t
    return total / len(spaces)


def main() -> None:
    print(f"{'check':<24} {'n':>3} {'ms/call':>9} {'min':>9} {'max':>9}")
    for n in SIZES:
        spaces = []
        for k in range(TABLES):
            space = partition_to_space(random_partition(n, random.Random(n * 100 + k)),
                                       certify=False)
            space.dim_hint = combinatorial_dimension(space)
            spaces.append(space)
        for name, check in CHECKS.items():
            ms = [one_pass(spaces, check) * 1e3 for _ in range(PASSES)]
            print(f"{name:<24} {n:>3} {statistics.median(ms):>9.3f} "
                  f"{min(ms):>9.3f} {max(ms):>9.3f}")


if __name__ == "__main__":
    main()

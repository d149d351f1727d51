#!/usr/bin/env python3
"""Microseconds and recursion nodes per SebSpace.violators call, and
microseconds per step of one, by size and dimension.

For each dimension (2 and 3) and subset size (16, 50 and 400), the script
asks V of random subsets of seeded uniform clouds of 1024 points, one
fresh handle per cloud and size, so the memos start empty (the "cold"
rows). The "loo" row times the leave-one-out sweep of basis search on a
random 50-point G: V(G), then V(G minus s) for every s in G, all on one
handle that is fresh at the start of the sweep, so later calls meet the
balls and masks of earlier ones. Two rows time one step of a call each:
"circ" is one circumsphere solve (instances._circumsphere) of k boundary
points of a cloud, by k, and "scan" is one outside mask
(SebSpace._outside) of a ball the handle has not scanned before, on
clouds of 60, 400 and 1024 points. A pass makes every call once; the
table shows, over the passes, the median and the spread of a pass's mean
time per call. The "nodes" column of the cold and loo rows counts the
miniball recursion's nodes per call: 1 + the points that set off a
recursion (the hits the call leaves in the handle), for each call that
evaluates a ball. It is deterministic, so two checkouts that read the
same nodes made the same recursion. Compare two checkouts by running the
script against each:

    PYTHONPATH=src python3 scripts/oracle_layer.py
"""

import random
import statistics
import time

import numpy as np

from vspace.instances import SebSpace, _circumsphere, generate
from vspace.subsets import elements

DIMS = (2, 3)
SIZES = (16, 50, 400)
N = 1024
CLOUDS = 4      # per dimension
SUBSETS = 25    # per cloud and size
SWEEP_SIZE = 50
SWEEPS = 5      # leave-one-out sweeps per cloud
PASSES = 5
CIRC_SETS = 2000    # boundary sets per dimension and size
SCAN_SIZES = (60, 400, 1024)
SCAN_BALLS = 500    # balls per cloud size


def timed_call(space, g) -> tuple[float, int]:
    """Seconds and recursion nodes of one violators call."""
    last = space._last
    t = time.perf_counter()
    space.violators(g)
    t = time.perf_counter() - t
    return t, 0 if space._last is last else 1 + len(space._last[2])


def one_pass(clouds, subsets) -> tuple[float, float]:
    """Mean seconds and nodes per violators call over every (cloud, subset)
    pair."""
    total, nodes, calls = 0.0, 0, 0
    for inst, masks in zip(clouds, subsets):
        space = SebSpace(inst)
        for g in masks:
            t, k = timed_call(space, g)
            total += t
            nodes += k
        calls += len(masks)
    return total / calls, nodes / calls


def sweep_pass(clouds, sets) -> tuple[float, float]:
    """Mean seconds and nodes per violators call over leave-one-out sweeps,
    one fresh handle per sweep: V(G), then V(G minus s) for every s in G."""
    total, nodes, calls = 0.0, 0, 0
    for inst, gs in zip(clouds, sets):
        for g in gs:
            space = SebSpace(inst)
            for s in [0] + [1 << i for i in elements(g)]:
                t, k = timed_call(space, g ^ s)
                total += t
                nodes += k
                calls += 1
    return total / calls, nodes / calls


def circ_pass(sets) -> float:
    """Mean seconds per _circumsphere call over the boundary sets."""
    t = time.perf_counter()
    for bpts in sets:
        _circumsphere(bpts)
    return (time.perf_counter() - t) / len(sets)


def scan_pass(inst, balls) -> float:
    """Mean seconds per outside mask over balls new to a fresh handle."""
    space = SebSpace(inst)
    t = time.perf_counter()
    for ball in balls:
        space._outside(ball)
    return (time.perf_counter() - t) / len(balls)


def row(kind: str, dim: int, size: int, calls: int, us: list[float], nodes: str = "-") -> None:
    print(f"{kind:>4} {dim:>3} {size:>5} {calls:>6} {nodes:>6} "
          f"{statistics.median(us):>9.1f} {min(us):>9.1f} {max(us):>9.1f}")


def timed_row(kind: str, dim: int, size: int, calls: int, run) -> None:
    """A row of PASSES runs of `run`, each giving (seconds, nodes) per call."""
    passes = [run() for _ in range(PASSES)]
    row(kind, dim, size, calls, [t * 1e6 for t, _ in passes], f"{passes[0][1]:.1f}")


def main() -> None:
    print(f"{'kind':>4} {'dim':>3} {'size':>5} {'calls':>6} {'nodes':>6} {'us/call':>9} "
          f"{'min':>9} {'max':>9}")
    for dim in DIMS:
        clouds = [generate("uniform-square", {"n": N, "dim": dim}, 100 + dim * 10 + k)
                  for k in range(CLOUDS)]
        for size in SIZES:
            rng = random.Random(1000 + dim * 100 + size)
            subsets = [[sum(1 << i for i in rng.sample(range(N), size))
                        for _ in range(SUBSETS)] for _ in clouds]
            timed_row("cold", dim, size, CLOUDS * SUBSETS, lambda: one_pass(clouds, subsets))
        rng = random.Random(2000 + dim)
        sets = [[sum(1 << i for i in rng.sample(range(N), SWEEP_SIZE))
                 for _ in range(SWEEPS)] for _ in clouds]
        timed_row("loo", dim, SWEEP_SIZE, CLOUDS * SWEEPS * (SWEEP_SIZE + 1),
                  lambda: sweep_pass(clouds, sets))
        pts = [tuple(p) for p in clouds[0].points.tolist()]
        rng = random.Random(3000 + dim)
        for k in range(2, dim + 2):
            sets = [rng.sample(pts, k) for _ in range(CIRC_SETS)]
            us = [circ_pass(sets) * 1e6 for _ in range(PASSES)]
            row("circ", dim, k, CIRC_SETS, us)
        gen = np.random.default_rng(4000 + dim)
        for size in SCAN_SIZES:
            inst = generate("uniform-square", {"n": size, "dim": dim}, 5000 + dim * 10 + size)
            balls = [(tuple(gen.random(dim).tolist()), float(gen.random()) * 0.5)
                     for _ in range(SCAN_BALLS)]
            us = [scan_pass(inst, balls) * 1e6 for _ in range(PASSES)]
            row("scan", dim, size, SCAN_BALLS, us)


if __name__ == "__main__":
    main()

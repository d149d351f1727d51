"""The benchmark's workloads: inputs made from the seed, ops, and checks.

A workload hands out rounds of ops. Every op is one timed call into the
program; a round is the smallest group of ops the run repeats whole. An
op is a callable taking `wrap`, which the runner uses to hand the
violator-space handle through the tracer (or unchanged when untraced).
The program is reached through module attributes at call time, so the
tracer's wrappers are picked up when they are installed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import zlib

import numpy as np

from vspace import algorithms, core, harness, hypercube, instances

from checks import (
    PLANAR_DIMENSION,
    TableOutput,
    check_table_op,
    seb_certificate,
    table_facts,
)

TOLERANCE = 1e-9        # relative tolerance of every generated point set
POOL = 256              # point clouds generated per solver run; rounds cycle through them


def _rng(seed: int, name: str, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *path])


def _solve_seed(seed: int, name: str, j: int, t: int) -> int:
    return int(np.random.SeedSequence([seed, zlib.crc32(name.encode()), j, t])
               .generate_state(1, np.uint64)[0])


class SolverWorkload:
    """Seeded solves on planar point clouds, two per cloud and round.

    With distinct points the basis of H is unique, so both solves of a
    cloud (and any later round on the same cloud) must return the same
    mask. With duplicated points only the ball is unique.
    """

    def __init__(self, name: str, solver: str, n: int, dupes: bool, trace_rounds: int):
        self.name = name
        self.solver = solver
        self.n = n
        self.dupes = dupes
        self.trace_rounds = trace_rounds
        self.expected_spans = ("instances.oracle", "core.find_basis", "core.extreme_elements",
                               f"algorithms.{solver}_algorithm", "algorithms.weighted_sample")

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.clouds = [self._cloud(j) for j in range(POOL)]
        self.reference: dict[int, int] = {}
        space = instances.SebSpace(instances.make_seb(self.clouds[0], tolerance=TOLERANCE))
        space.violators(1)

    def _cloud(self, j: int) -> np.ndarray:
        rng = _rng(self.seed, self.name, j)
        if self.dupes:
            half = rng.random((self.n // 2, 2))
            pts = np.concatenate([half, half])[rng.permutation(self.n)]
            if len(np.unique(pts, axis=0)) != self.n // 2:
                raise RuntimeError(f"cloud {j}: the doubled points are not all distinct")
        else:
            pts = rng.random((self.n, 2))
            if len(np.unique(pts, axis=0)) != self.n:
                raise RuntimeError(f"cloud {j}: two generated points coincide")
        return pts

    def round_ops(self, j: int):
        i = j % POOL
        space = instances.SebSpace(instances.make_seb(self.clouds[i], tolerance=TOLERANCE))
        return [((i, j, t), functools.partial(self._solve, space,
                                              _solve_seed(self.seed, self.name, j, t)))
                for t in range(2)]

    def _solve(self, space, seed: int, wrap):
        if self.solver == "german":
            return algorithms.german_algorithm(wrap(space), seed, inner="bfa")
        return algorithms.swiss_algorithm(wrap(space), seed)

    def check(self, key, result) -> list[str]:
        i = key[0]
        problems = seb_certificate(self.clouds[i], result.basis, TOLERANCE)
        d = PLANAR_DIMENSION
        if self.solver == "german":
            if result.calls > d + 1:
                problems.append(f"{result.calls} inner calls, paper bound d+1 = {d + 1}")
        else:
            # The swiss solver's documented safety cap, 64(d+1)(log2 n + 1) rounds.
            cap = math.ceil(64 * (d + 1) * (math.log2(self.n) + 1))
            if not result.trace.terminated_cleanly or len(result.trace.rounds) >= cap:
                problems.append(f"swiss solve did not end before {cap} rounds")
        if not self.dupes and not problems:
            ref = self.reference.setdefault(i, result.basis)
            if result.basis != ref:
                problems.append(f"cloud {i}: basis {result.basis:#x}, earlier {ref:#x}")
        return problems


def random_partition(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random interval partition of the n-cube by recursive halving.

    A subcube either stays one interval or splits along a random free
    element into its two halves. The first five levels always split, so
    no interval holds more than 2^(n-5) sets; one early giant interval
    would otherwise set the cost of checking the whole table.
    """
    out = []

    def split(bottom: int, free: list[int], depth: int) -> None:
        if not free or (depth >= 5 and rng.random() < 0.3):
            top = bottom
            for e in free:
                top |= 1 << e
            out.append((bottom, top))
            return
        e = free[int(rng.integers(len(free)))]
        rest = [f for f in free if f != e]
        split(bottom, rest, depth + 1)
        split(bottom | 1 << e, rest, depth + 1)

    split(0, list(range(n)), 0)
    return sorted(out)


def partition_table(n: int, partition) -> list[int]:
    """V(G) = H minus the top of G's interval, the space of the partition."""
    full = (1 << n) - 1
    table = np.zeros(1 << n, dtype=np.int64)
    for bottom, top in partition:
        members = np.array([bottom], dtype=np.int64)
        free = top & ~bottom
        while free:
            low = free & -free
            members = np.concatenate([members, members | low])
            free ^= low
        table[members] = full & ~top
    return table.tolist()


def _tabulated(points: np.ndarray) -> list[int]:
    space = instances.SebSpace(instances.make_seb(points, tolerance=TOLERANCE))
    return list(instances.tabulate(space, certify=False).table)


class TableWorkload:
    """`vspace check --dimension --sampling-lemma --nondegenerate` on stored
    tables, then the round trip pattern -> partition -> table.

    The tables of a round: twelve random interval partitions at n = 12,
    two tabulated uniform planar point sets at n = 11, and two degenerate
    tabulated sets at n = 11, one with a duplicated point and one with six
    cocircular points. The partitions are three quarters of the ops, so
    the median and the 90th percentile both fall among them.
    """

    name = "check-tables"
    trace_rounds = 1
    expected_spans = ("instances.load_explicit", "instances.tabulate", "core.check_axioms",
                      "core.combinatorial_dimension", "core.is_nondegenerate",
                      "core.find_basis", "core.extreme_elements",
                      "harness.verify_sampling_lemma", "harness.exact_sampling_stats",
                      "hypercube.violation_pattern", "hypercube.pattern_is_hypercube_partition",
                      "hypercube.pattern_to_partition", "hypercube.partition_to_space")

    def setup(self, seed: int, workdir: str) -> None:
        self.entries = []   # (n, table, kind, partition)
        self._facts: dict[int, object] = {}
        for i in range(12):
            part = random_partition(12, _rng(seed, self.name, 0, i))
            self.entries.append((12, partition_table(12, part), "partition", part))
        for i in range(2):
            pts = _rng(seed, self.name, 1, i).random((11, 2))
            self.entries.append((11, _tabulated(pts), "planar", None))
        rng = _rng(seed, self.name, 2)
        pts = rng.random((10, 2))
        pts = np.insert(pts, int(rng.integers(11)), pts[int(rng.integers(10))], axis=0)
        self.entries.append((11, _tabulated(pts), "degenerate", None))
        # Six points near a regular hexagon on one circle: the triangles of
        # alternate corners are acute, so both are bases of the six.
        angles = rng.uniform(0, 2 * math.pi) + np.arange(6) * math.pi / 3 \
            + rng.uniform(-0.15, 0.15, 6)
        ring = 0.5 + 0.3 * np.column_stack([np.cos(angles), np.sin(angles)])
        pts = np.concatenate([ring, rng.random((5, 2))])[rng.permutation(11)]
        self.entries.append((11, _tabulated(pts), "degenerate", None))

        self.paths = []
        for i, (n, table, _, _) in enumerate(self.entries):
            path = os.path.join(workdir, f"table-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"format": "violator-table-v1", "n": n, "table": table}, fh)
            self.paths.append(path)
        instances.load_explicit(self.paths[0]).violators(0)

    def round_ops(self, j: int):
        return [(i, functools.partial(self._check, path))
                for i, path in enumerate(self.paths)]

    @staticmethod
    def _check(path: str, wrap) -> TableOutput:
        # The oracle here is a list lookup; it is left unwrapped, since a span
        # per lookup would cost more than the lookup and measure the tracer.
        space = instances.load_explicit(path)
        if not core.check_axioms(space).ok:
            return TableOutput(False, None, (), None, None, False, None, None)
        d = core.combinatorial_dimension(space)
        lemma = harness.verify_sampling_lemma(space, d=d)
        nondeg = core.is_nondegenerate(space)
        pattern = hypercube.violation_pattern(space)
        flag, _ = hypercube.pattern_is_hypercube_partition(pattern)
        intervals = rebuilt = None
        if flag:
            part = hypercube.pattern_to_partition(pattern)
            intervals = tuple((iv.bottom, iv.top) for iv in part.intervals)
            rebuilt = tuple(hypercube.partition_to_space(part, certify=False).table)
        rows = tuple((row.r, row.v, row.x_next, row.equal) for row in lemma.rows)
        return TableOutput(True, d, rows, lemma.ok, nondeg, flag, intervals, rebuilt)

    def facts(self, i: int):
        if i not in self._facts:
            n, table, _, _ = self.entries[i]
            self._facts[i] = table_facts(table, n)
        return self._facts[i]

    def check(self, key, out: TableOutput) -> list[str]:
        _, table, kind, part = self.entries[key]
        return check_table_op(table, self.facts(key), kind, out, part)


WORKLOADS = {
    "german-seb400": lambda: SolverWorkload("german-seb400", "german", 400, False, 16),
    "swiss-seb1024": lambda: SolverWorkload("swiss-seb1024", "swiss", 1024, False, 32),
    "german-dupes": lambda: SolverWorkload("german-dupes", "german", 60, True, 64),
    "check-tables": TableWorkload,
}

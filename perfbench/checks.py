"""Checks of the program's outputs made without the program.

Each check returns a list of problems; an empty list means the output
passed. The benchmark counts an op as failed when its list is not empty.
Everything here is numpy and exact rational arithmetic over the inputs
the benchmark generated itself, so a fault in vspace cannot make its own
answer look right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# A disc in the plane is fixed by at most three boundary points.
PLANAR_DIMENSION = 3


def popcount(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a).astype(np.int64)


def _solve_exact(m: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination over the rationals; None when m is singular."""
    k = len(rhs)
    a = [row + [r] for row, r in zip(m, rhs)]
    for c in range(k):
        piv = next((r for r in range(c, k) if a[r][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        for r in range(k):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[r][k] / a[r][r] for r in range(k)]


def seb_certificate(points: np.ndarray, basis: int, tol: float) -> list[str]:
    """Optimality certificate for `basis` as the smallest enclosing ball.

    The basis points must be distinct and lie on one sphere whose centre
    is a convex combination of them with strictly positive weights, and
    every point must lie inside that sphere within the relative tolerance
    `tol` on squared distances. These are the optimality conditions of
    the smallest enclosing ball; positive weights also make the basis
    minimal. The centre and the weights are computed exactly from the
    binary coordinates, so a thin basis triangle cannot fail the check
    by rounding.
    """
    if basis >> len(points):
        return [f"basis {basis:#x} names points beyond the {len(points)} given"]
    idx = [i for i in range(len(points)) if basis >> i & 1]
    if not idx:
        return ["empty basis"]
    if len(np.unique(points[idx], axis=0)) != len(idx):
        return [f"basis {idx} has coinciding points"]
    pts = [[Fraction(float(x)) for x in points[i]] for i in idx]
    p0 = pts[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in pts[1:]]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    lam = _solve_exact([[2 * dot(u, v) for v in diffs] for u in diffs],
                       [dot(u, u) for u in diffs])
    if lam is None:
        return [f"basis {idx} is affinely dependent"]
    centre = [c + sum(li * u[t] for li, u in zip(lam, diffs)) for t, c in enumerate(p0)]
    weights = [1 - sum(lam), *lam]
    r2 = {dot(d, d) for d in ([x - c for x, c in zip(p, centre)] for p in pts)}

    problems = []
    if len(r2) != 1:
        problems.append(f"basis {idx} is not on one sphere")
    if min(weights) <= 0:
        problems.append(f"centre is not a positive combination of basis {idx}")
    radius2 = float(max(r2))
    d2 = ((points - np.array([float(c) for c in centre])) ** 2).sum(axis=1)
    outside = np.flatnonzero(d2 > radius2 * (1.0 + tol))
    if outside.size:
        problems.append(f"{outside.size} points outside the ball of basis {idx}")
    return problems


@dataclass(frozen=True)
class TableFacts:
    """What a violator table's entries imply, computed with numpy."""

    n: int
    consistent: bool
    local: bool
    nondegenerate: bool                    # every fiber of V is an interval
    intervals: tuple[tuple[int, int], ...]  # (AND, OR) of each fiber, sorted
    v: tuple[Fraction, ...]                # E|V(R)| over uniform r-subsets
    x: tuple[Fraction, ...]                # E|X(R)|, X = extreme elements
    max_extreme: int

    @property
    def identity(self) -> bool:
        """v_r / (n - r) == x_{r+1} / (r + 1) for every r < n."""
        return all(self.v[r] / (self.n - r) == self.x[r + 1] / (r + 1)
                   for r in range(self.n))

    @property
    def fiber_dimension(self) -> int:
        """Largest fiber bottom: the dimension of a nondegenerate space."""
        return max(b.bit_count() for b, _ in self.intervals)


def table_facts(table, n: int) -> TableFacts:
    """Axioms, fibers and exact sampling sums of a full violator table.

    Locality is checked one element at a time: adding a non-violator h
    to F must keep V(F). Chaining such steps gives the full axiom for a
    consistent table, so the 2^n * n single steps decide it.
    """
    t = np.asarray(table, dtype=np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    consistent = not np.any(t & masks)
    local = True
    x_count = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        bit = 1 << j
        has = (masks & bit) != 0
        other = t[masks ^ bit]
        grow = ~has & ((t & bit) == 0)
        if np.any(other[grow] != t[grow]):
            local = False
        x_count += has & (other != t)

    order = np.argsort(t, kind="stable")
    vals = t[order]
    starts = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
    sorted_masks = masks[order]
    bottoms = np.bitwise_and.reduceat(sorted_masks, starts)
    tops = np.bitwise_or.reduceat(sorted_masks, starts)
    counts = np.diff(np.r_[starts, len(sorted_masks)])
    nondegenerate = bool(np.all(counts == 1 << popcount(tops & ~bottoms)))

    sizes = popcount(masks)
    sum_v = np.bincount(sizes, weights=popcount(t), minlength=n + 1)
    sum_x = np.bincount(sizes, weights=x_count, minlength=n + 1)
    v = tuple(Fraction(int(sum_v[r]), math.comb(n, r)) for r in range(n + 1))
    x = tuple(Fraction(int(sum_x[r]), math.comb(n, r)) for r in range(n + 1))
    return TableFacts(n, consistent, local, nondegenerate,
                      tuple(sorted(zip(bottoms.tolist(), tops.tolist()))),
                      v, x, int(x_count.max()))


@dataclass(frozen=True)
class TableOutput:
    """What one check-tables op got from the program."""

    axioms_ok: bool
    dimension: int | None
    rows: tuple[tuple[int, Fraction, Fraction, bool], ...]  # (r, v, x_next, equal)
    lemma_ok: bool | None
    nondegenerate: bool | None
    pattern_is_partition: bool
    intervals: tuple[tuple[int, int], ...] | None
    rebuilt: tuple[int, ...] | None


def check_table_op(table, facts: TableFacts, kind: str, out: TableOutput,
                   partition=None) -> list[str]:
    """Compare one op's output with the facts and with how the table was made.

    kind is "partition" (built from the interval partition `partition`,
    so nondegenerate with dimension its largest bottom), "planar"
    (tabulated points in general position) or "degenerate" (tabulated
    points with a duplicate or cocircular points, never nondegenerate).
    """
    problems = []
    if not (facts.consistent and facts.local):
        problems.append("stored table breaks the axioms")
    if not out.axioms_ok:
        problems.append("program rejects the axioms of a violator space")
        return problems

    if not facts.identity:
        problems.append("sampling identity fails on the exact sums")
    want_rows = [(r, facts.v[r], facts.x[r + 1], True) for r in range(facts.n)]
    if list(out.rows) != want_rows:
        problems.append("sampling rows differ from the exact sums")
    if not out.lemma_ok:
        problems.append("program reports the sampling lemma as failed")

    expected_nd = {"partition": True, "degenerate": False}.get(kind, facts.nondegenerate)
    if facts.nondegenerate != expected_nd:
        problems.append(f"fiber test says nondegenerate={facts.nondegenerate}, "
                        f"construction says {expected_nd}")
    if out.nondegenerate != facts.nondegenerate:
        problems.append(f"program says nondegenerate={out.nondegenerate}, "
                        f"fibers say {facts.nondegenerate}")
    if out.pattern_is_partition != facts.nondegenerate:
        problems.append("pattern test disagrees with the fiber test")

    if kind == "partition":
        want_dim = max(b.bit_count() for b, _ in partition)
        if out.dimension != want_dim:
            problems.append(f"dimension {out.dimension}, largest bottom {want_dim}")
    elif out.dimension is None or not 0 <= out.dimension <= PLANAR_DIMENSION:
        problems.append(f"planar dimension {out.dimension} outside [0, {PLANAR_DIMENSION}]")
    if facts.nondegenerate and out.dimension != facts.fiber_dimension:
        problems.append(f"dimension {out.dimension}, fiber bottoms {facts.fiber_dimension}")
    if out.dimension is not None and facts.max_extreme > out.dimension:
        problems.append("a set has more extreme elements than the dimension")

    if facts.nondegenerate:
        if out.intervals != facts.intervals:
            problems.append("round trip partition differs from the fibers")
        if partition is not None and out.intervals != tuple(sorted(partition)):
            problems.append("round trip does not recover the generating partition")
        if out.rebuilt != tuple(table):
            problems.append("round trip does not reproduce the table")
    return problems

import bisect
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from vspace import algorithms, core
from vspace.algorithms import weighted_sample
from vspace.core import FuncSpace, ViolatorSpace, check_axioms, extreme_elements, is_basis
from vspace.fixtures import (
    empty_violators_space,
    f1_space,
    f2_space,
    interval_space,
    singleton_pattern_space,
)
from vspace.harness import SamplingStats
from vspace.hypercube import partition_to_space, random_partition
from vspace.instances import (ExplicitSpace, SebSpace, _ball_with_boundary, _circumsphere,
                              _dist2, _dot, _solve_linear, generate, make_seb, tabulate)
from vspace.seeding import spawn
from vspace.subsets import elements, full_mask, iter_by_size_then_value, iter_size_k_submasks

FIXTURE_SEED = 20260817

# Every entry is a certified explicit table; n spans 2..12 and the set
# deliberately includes one degenerate space (f2) and one tabulated
# point-set instance (seb8).
ROSTER_KEYS = ("f1", "f2", "seb8", "empty6", "singleton5", "hpart4", "interval12")


def build_roster() -> dict:
    hpart = partition_to_space(
        random_partition(4, random.Random(spawn(FIXTURE_SEED, 1))))
    return {
        "f1": f1_space(),
        "f2": f2_space(),
        "seb8": tabulate(SebSpace(generate("uniform-square",
                                           {"n": 8, "dim": 2}, FIXTURE_SEED))),
        "empty6": empty_violators_space(),
        "singleton5": singleton_pattern_space(),
        "hpart4": hpart,
        "interval12": interval_space(),
    }


def plain_find_basis(space, subset):
    """Oracle for find_basis: the unpruned (popcount, value) scan of `subset`."""
    for b in iter_by_size_then_value(subset):
        if space.violators(b) & subset == 0:
            return b
    raise ValueError(f"no basis below {subset:#x}")


def dimension_by_is_basis(space):
    """Oracle for combinatorial_dimension: the largest subset that is_basis
    accepts, by a leave-one-out pass of oracle calls on every subset."""
    return max(g.bit_count() for g in range(1 << space.n) if is_basis(space, g))


def sampling_stats_by_enumeration(space, r):
    """Oracle for exact_sampling_stats: V and extreme_elements of every
    r-subset, one by one."""
    n = space.n
    total_v = 0
    xs = []
    for mask in iter_size_k_submasks(full_mask(n), r):
        total_v += space.violators(mask).bit_count()
        xs.append(extreme_elements(space, mask).bit_count())
    count = math.comb(n, r)
    return SamplingStats(r, Fraction(total_v, count), Fraction(sum(xs), count), max(xs))


def table_pass_cases(roster) -> list:
    """The handles the table pass is checked on against the loops: the
    roster; the random tables at n = 1..8, one with arbitrary and one with
    consistent entries per n, that fail check_axioms; a degenerate planar
    cloud, live and tabulated (the 3 x 3 integer grid, whose corners and
    edge midpoints are cocircular, and a second copy of one corner); and
    n = 0 as a table and as a FuncSpace."""
    rng = random.Random(spawn(FIXTURE_SEED, 2))
    tables = []
    for n in range(1, 9):
        arbitrary = [rng.getrandbits(n) for _ in range(1 << n)]
        tables += [ExplicitSpace(n, arbitrary),
                   ExplicitSpace(n, [v & ~g for g, v in enumerate(arbitrary)])]
    cloud = SebSpace(make_seb([(x, y) for x in range(3) for y in range(3)] + [(0, 0)]))
    return [*roster.values(), *(space for space in tables if not check_axioms(space).ok),
            cloud, tabulate(cloud), ExplicitSpace(0, [0]), FuncSpace(0, lambda g: 0)]


def peel_elements(mask: int) -> list[int]:
    """Oracle for subsets.elements: peel the lowest set bit off until none
    is left. Each step rewrites the whole int, so k bits cost O(k n)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def compress(mask: int, support: int) -> int:
    """Extract the bits of mask at the positions of support into a dense mask.

    Bit j of the result corresponds to the j-th lowest set bit of support.
    mask must be a submask of support.
    """
    out = 0
    j = 0
    while support:
        low = support & -support
        if mask & low:
            out |= 1 << j
        j += 1
        support ^= low
    return out


def expand(dense: int, support: int) -> int:
    """Inverse of compress: place bit j of dense at the j-th set bit of support."""
    out = 0
    while dense:
        low = support & -support
        if dense & 1:
            out |= low
        dense >>= 1
        support ^= low
    return out


class RestrictedSpace(ViolatorSpace):
    """View of a space restricted to a support set, reindexed densely.

    The restricted map is F -> V(F) & support, with masks translated to a
    dense 0..k-1 indexing; expand/compress with the support mask translate
    results back. The oracle for the swiss stage that German --inner sa
    runs on its parent handle with weights confined to the working set.
    """

    def __init__(self, base: ViolatorSpace, support: int, dim_hint: int | None = None):
        self.base = base
        self.support = support
        self.n = support.bit_count()
        self.dim_hint = dim_hint if dim_hint is not None else base.dim_hint

    def violators(self, subset: int) -> int:
        full = self.base.violators(expand(subset, self.support))
        return compress(full & self.support, self.support)

    def extreme_candidates(self, subset: int) -> int:
        full = self.base.extreme_candidates(expand(subset, self.support))
        return compress(full & self.support, self.support)


class RecordingHandle:
    """Forwarding proxy that records every mask violators() is asked for,
    like a tracer's."""

    def __init__(self, inner):
        self._inner = inner
        self.asked: list[int] = []

    def violators(self, subset: int) -> int:
        self.asked.append(subset)
        return self._inner.violators(subset)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _generic_mb(pts, order, end, boundary, tol, dim, balls, hits):
    """instances._mb with the containment test of every dimension: _dist2
    against r^2 * (1 + tol), recomputed for each point."""
    if boundary in balls:
        ball = balls[boundary]
    else:
        ball = balls[boundary] = _ball_with_boundary([pts[j] for j in boundary], tol, dim)
    if len(boundary) == dim + 1:
        return ball
    for i in range(end):
        j = order[i]
        c, r2 = ball
        if _dist2(pts[j], c) <= r2 * (1.0 + tol):
            continue
        hits.append(j)
        ball = _generic_mb(pts, order, i, boundary + (j,), tol, dim, balls, hits)
        del order[i]
        order.insert(0, j)
    return ball


def generic_ball(space: SebSpace, subset: int, hits: list[int]):
    """Oracle for SebSpace._ball: the generic move-to-front loop on a fresh
    memo; ValueError where the float range overflows."""
    inst = space.instance
    order = elements(subset)
    return _generic_mb(space._points, order, len(order), (), inst.tolerance, inst.dim, {}, hits)


def _ball_with_boundary_or_none(bpts, tol):
    """The None-state boundary ball: instances._ball_with_boundary before the
    empty ball, None for the empty boundary and wherever no circumsphere of
    the boundary or of a proper subset covers it within tol."""
    if not bpts:
        return None
    ball = _circumsphere(bpts)
    if ball is not None:
        return ball
    best = None
    k = len(bpts)
    for size in range(1, k):
        for idx in itertools.combinations(range(k), size):
            cand = _circumsphere([bpts[i] for i in idx])
            if cand is None:
                continue
            c, r2 = cand
            lim = r2 * (1.0 + tol) + 1e-300
            if all(_dist2(p, c) <= lim for p in bpts):
                if best is None or r2 < best[1]:
                    best = cand
        if best is not None:
            return best
    return best


def _none_state_mb(pts, order, end, boundary, tol, dim, balls, hits):
    """The None-state recursion: while the ball is None, every point sets
    off a recursion."""
    if boundary in balls:
        ball = balls[boundary]
    else:
        ball = balls[boundary] = _ball_with_boundary_or_none([pts[j] for j in boundary], tol)
    if len(boundary) == dim + 1:
        return ball
    for i in range(end):
        j = order[i]
        if ball is not None:
            c, r2 = ball
            if _dist2(pts[j], c) <= r2 * (1.0 + tol):
                continue
        hits.append(j)
        ball = _none_state_mb(pts, order, i, boundary + (j,), tol, dim, balls, hits)
        del order[i]
        order.insert(0, j)
    return ball


def none_state_ball(space: SebSpace, subset: int):
    """Oracle for SebSpace._ball: (ball, hits) of the miniball recursion as
    it was before the empty ball, with None for "this boundary has no ball",
    on a fresh memo. The ball is None wherever a nonempty boundary met on
    the way had none: from there that recursion tries every point and can
    end on a ball that leaves points of the subset outside."""
    inst, hits, balls = space.instance, [], {}
    order = elements(subset)
    ball = _none_state_mb(space._points, order, len(order), (), inst.tolerance, inst.dim,
                          balls, hits)
    if any(b is None for key, b in balls.items() if key):
        ball = None
    return ball, hits


def full_gram_solve_linear(a, b):
    """Oracle for instances._solve_linear: the same elimination, with the
    pivot scale taken by a generator over the rows."""
    k = len(b)
    m = [list(a[i]) + [b[i]] for i in range(k)]
    scale = max((abs(v) for row in a for v in row), default=0.0)
    floor = scale * 1e-12
    for col in range(k):
        piv, best = col, abs(m[col][col])
        for row in range(col + 1, k):
            v = abs(m[row][col])
            if v > best:
                piv, best = row, v
        if best <= floor:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = 1.0 / m[col][col]
        for row in range(col + 1, k):
            f = m[row][col] * inv
            if f:
                for j in range(col, k + 1):
                    m[row][j] -= f * m[col][j]
    out = [0.0] * k
    for col in range(k - 1, -1, -1):
        s = m[col][k]
        for j in range(col + 1, k):
            s -= m[col][j] * out[j]
        out[col] = s / m[col][col]
    return out


def full_gram_circumsphere(bpts):
    """Oracle for instances._circumsphere: every Gram entry computed on its
    own, 2 * dot(d_i, d_j) for each i and j, and solved by
    full_gram_solve_linear."""
    b0 = bpts[0]
    if len(bpts) == 1:
        return b0, 0.0
    diffs = [tuple(x - y for x, y in zip(p, b0)) for p in bpts[1:]]
    k = len(diffs)
    gram = [[2.0 * _dot(diffs[i], diffs[j]) for j in range(k)] for i in range(k)]
    rhs = [_dot(d, d) for d in diffs]
    lam = full_gram_solve_linear(gram, rhs)
    if lam is None:
        return None
    center = list(b0)
    for li, dvec in zip(lam, diffs):
        for t, dt in enumerate(dvec):
            center[t] += li * dt
    r2 = _dist2(center, b0)
    if not math.isfinite(r2) or not all(map(math.isfinite, center)):
        return None
    return tuple(center), r2


def generic_circumsphere(bpts):
    """Oracle for instances._circle: the generic circumsphere of every
    dimension, each Gram entry computed once and mirrored below the
    diagonal, solved by instances._solve_linear."""
    b0 = bpts[0]
    if len(bpts) == 1:
        return b0, 0.0
    diffs = [tuple(x - y for x, y in zip(p, b0)) for p in bpts[1:]]
    k = len(diffs)
    rhs = [_dot(d, d) for d in diffs]
    gram = [[0.0] * k for _ in range(k)]
    for i in range(k):
        gram[i][i] = 2.0 * rhs[i]
        for j in range(i + 1, k):
            gram[i][j] = gram[j][i] = 2.0 * _dot(diffs[i], diffs[j])
    lam = _solve_linear(gram, rhs)
    if lam is None:
        return None
    center = list(b0)
    for li, dvec in zip(lam, diffs):
        for t, dt in enumerate(dvec):
            center[t] += li * dt
    r2 = _dist2(center, b0)
    if not math.isfinite(r2) or not all(map(math.isfinite, center)):
        return None
    return tuple(center), r2


def eager_growth_replay(start, step, rounds, stop):
    """Oracle for GrowthTrace.rounds: the (sample, violators, weight_total)
    of up to `rounds` rounds of G <- G | step(G) from G = start, built
    round by round as the solvers once stored them; weight_total is None.
    With stop, the rounds end at the first one without violators."""
    out, g = [], start
    for _ in range(rounds):
        v = step(g)
        out.append((g, v, None))
        if stop and v == 0:
            break
        g |= v
    return out


def count_round_records(monkeypatch) -> list:
    """Patch core.RoundRecord and algorithms.RoundRecord so that every
    record built appends 1 to the returned list."""
    built = []
    real = core.RoundRecord

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "RoundRecord", counting)
    monkeypatch.setattr(algorithms, "RoundRecord", counting)
    return built


def bisect_weighted_sample(mu, r, rng):
    """Oracle for algorithms.weighted_sample: Floyd's draw of r of the
    sum(mu) slips, each mapped to its element by bisect_right over the
    cumulative sums in Python ints."""
    cums = list(itertools.accumulate(mu))
    total = cums[-1] if cums else 0
    if not 1 <= r <= total:
        raise ValueError(f"sample size {r} outside [1, {total}]")
    chosen = set()
    for j in range(total - r, total):
        t = rng.randrange(j + 1)
        chosen.add(j if t in chosen else t)
    mask = 0
    for slip in chosen:
        mask |= 1 << bisect.bisect_right(cums, slip)
    return mask


def eager_doubling_replay(space, support, seed, r, rounds, stop):
    """Oracle for DoublingTrace.rounds and final_weights: the weight-doubling
    loop with its running total, weights 1 on the support and 0 off it.
    Returns the (sample, violators, weight_total) of every round and the
    final weights of the handle's n elements, as the loop leaves them: 2^k
    on the support, k the doublings, and 0 off it. With stop, the rounds
    end at the first one without violators."""
    mu = [support >> i & 1 for i in range(space.n)]
    total = support.bit_count()
    rng = random.Random(spawn(seed, 0))
    out = []
    for _ in range(rounds):
        sample = weighted_sample(mu, r, rng)
        v = space.violators(sample) & support
        for i in peel_elements(v):
            total += mu[i]
            mu[i] *= 2
        out.append((sample, v, total))
        if stop and v == 0:
            break
    return out, tuple(mu)


def row_sum_outside(space: SebSpace, ball) -> int:
    """Oracle for SebSpace._outside: the mask of the points whose row sum
    of squared coordinate differences exceeds r^2 * (1 + tol)."""
    center, r2 = ball
    inst = space.instance
    d2 = ((inst.points - np.asarray(center)) ** 2).sum(axis=1)
    return sum(1 << int(i) for i in np.flatnonzero(d2 > r2 * (1.0 + inst.tolerance)))


def _index_order_mb(pts, sel, boundary, tol, dim):
    """The miniball recursion on a shrinking prefix, in plain index order."""
    ball = _ball_with_boundary([pts[j] for j in boundary], tol, dim)
    if len(boundary) == dim + 1:
        return ball
    for i, j in enumerate(sel):
        c, r2 = ball
        if _dist2(pts[j], c) <= r2 * (1.0 + tol):
            continue
        ball = _index_order_mb(pts, sel[:i], boundary + (j,), tol, dim)
    return ball


def index_order_violators(space: SebSpace, subset: int) -> int:
    """Oracle for SebSpace.violators: the same outside test around the ball
    of the index-order recursion, which moves no point."""
    inst = space.instance
    if not subset:
        return full_mask(space.n)
    ball = _index_order_mb(space._points, elements(subset), (), inst.tolerance, inst.dim)
    return row_sum_outside(space, ball) & ~subset


@pytest.fixture(scope="session")
def roster() -> dict:
    return build_roster()

"""Basis solvers over violator-space handles.

Three entry points, all deterministic functions of (space, seed):

  find_basis        brute-force basis of a subset (core), the terminal solver
  german_algorithm  sample r = ceil(d*sqrt(n/2)) elements, then repeatedly
                    add the violators of the working set (at most d+1
                    growth rounds), and find a basis of the final one
  swiss_algorithm   keep an integer weight per element, sample
                    r = ceil(c*d^2) slips per round, double the weights of
                    the violators of the sample until none remain, and
                    find a basis of the last sample

The doubling loop keeps its weights in one int64 array, so a round's
cumulative sums and doublings are numpy passes. Sampling must stay exact,
and totals pass 2^64 after enough doubling rounds: the loop keeps an exact
Python-int total beside the array and turns the array into Python ints
(dtype object) before its total could reach 2^62, and weighted_sample
sums in Python ints wherever an int64 sum could wrap. A doubling trace
keeps the run's seed and violators; its rounds and final weights rerun
the same loop with those violators in place of the oracle's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .core import (
    GrowthTrace,
    RoundRecord,
    RunTrace,
    ViolatorSpace,
    find_basis,
    resolve_dimension,
)
from .seeding import spawn
from .subsets import elements, full_mask


class SolverStall(RuntimeError):
    """A solver hit its round cap; the partial trace is attached."""

    def __init__(self, message: str, trace: RunTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True, slots=True)
class SolveResult:
    basis: int
    trace: RunTrace
    # Rounds (german and swiss), 1 for a delegated run. Read off the length
    # of the trace's violators column when left at 0, which builds no round
    # record; a field, not a property, so dataclasses.replace sets it.
    calls: int = 0

    def __post_init__(self):
        if not self.calls:
            object.__setattr__(self, "calls", max(1, len(self.trace.violators)))


# The trace of a run that hands the whole ground set to find_basis.
_DELEGATED = GrowthTrace(start=0, violators=(), terminated_cleanly=True, delegated=True)


def weighted_sample(mu, r: int, rng: random.Random) -> int:
    """Collapse of a uniform r-subset of the slip multiset.

    Element h contributes mu[h] >= 0 distinguishable slips; mu is a list
    of ints or a numpy array. A uniform r-subset of all slips is drawn with
    Floyd's method and mapped back to element indices; this has the same
    law as removing one random slip at a time. The result has between 1
    and r elements set, none of weight 0.
    """
    cums = _cumulative(mu)
    total = int(cums[-1]) if len(cums) else 0
    if not 1 <= r <= total:
        raise ValueError(f"sample size {r} outside [1, {total}]")
    chosen: set[int] = set()
    for j in range(total - r, total):
        t = rng.randrange(j + 1)
        if t in chosen:
            chosen.add(j)
        else:
            chosen.add(t)
    # Slip t belongs to the first element whose cumulative sum exceeds t.
    slips = np.fromiter(chosen, cums.dtype, len(chosen))
    mask = 0
    for i in cums.searchsorted(slips, "right").tolist():
        mask |= 1 << i
    return mask


def _cumulative(mu) -> np.ndarray:
    """The running sums of the weights mu: int64 where none wraps, else
    exact Python ints (dtype object)."""
    w = np.asarray(mu)
    if w.dtype == np.int64 and len(w):
        cums = w.cumsum()
        # Non-negative weights that wrap first wrap to a negative sum.
        if cums[cums.argmin()] >= 0:
            return cums
    return np.asarray(mu, dtype=object).cumsum()


def german_sample_size(d: int, n: int) -> int:
    """The german solver's first sample, r = min(n, max(1, ceil(d sqrt(n/2))))."""
    return min(n, max(1, math.ceil(d * math.sqrt(n / 2.0))))


def swiss_sample_size(d: int, n: int, c: float = 2.0) -> int:
    """Slips per weight-doubling round, r = min(n, max(1, ceil(c d^2)))."""
    r = c * d * d
    if r >= n:      # also when the product overflowed to inf
        return n
    return min(n, math.ceil(max(r, 1.0)))


def german_algorithm(space: ViolatorSpace, seed: int, inner: str = "bfa") -> SolveResult:
    """Sample-then-grow solver: at most d+1 growth rounds, then one basis.

    Each round merges V(B) into the working set G, for B a basis of G: with
    inner="bfa" that is V(G) itself by locality, with inner="sa" B is the
    basis of the swiss stage run on this handle with its weights confined
    to G (inner run i has seed spawn(seed, i)). A round with violators
    adds an element of every basis of H, so d+1 rounds always suffice (past
    them it raises SolverStall, as a stalled inner swiss run does, with the
    german rounds before it). The result is find_basis of the last working
    set, or its swiss basis. When n <= r the sample would be everything, so
    the run is find_basis on the full space (delegated, with zero rounds)
    for either inner solver: n <= r implies n <= 2d^2, where the inner
    swiss run would delegate to that same call.
    """
    if inner not in ("bfa", "sa"):
        raise ValueError(f"inner solver must be 'bfa' or 'sa', got {inner!r}")
    d = resolve_dimension(space)
    n = space.n
    r = german_sample_size(d, n)
    if n <= r:
        return SolveResult(find_basis(space, space.ground), _DELEGATED)

    rng = random.Random(spawn(seed, 0))
    g = start = weighted_sample(np.ones(n, np.int64), r, rng)
    vs: list[int] = []
    try:
        for i in range(1, d + 2):
            # V(B) for B a basis of G; with bfa V(G) itself, equal by locality
            b = g if inner == "bfa" else _swiss(space, g, spawn(seed, i), 2.0).basis
            vs.append(space.violators(b))
            if vs[-1] == 0:
                break
            g |= vs[-1]
    except SolverStall as stall:
        raise SolverStall(f"inner swiss run stalled: {stall}", GrowthTrace(
            start=start, violators=tuple(vs), terminated_cleanly=False)) from stall
    trace = GrowthTrace(start=start, violators=tuple(vs), terminated_cleanly=vs[-1] == 0)
    if not trace.terminated_cleanly:
        raise SolverStall(f"basis loop ran past {d + 1} rounds; the handle does not "
                          f"satisfy the violator-space axioms", trace)
    return SolveResult(find_basis(space, g) if inner == "bfa" else b, trace)


def default_safety_cap(d: int, n: int) -> int:
    return math.ceil(64 * (d + 1) * (math.log2(max(n, 2)) + 1))


# The int64 weights of the doubling loop stay below this total; a round that
# would reach it turns them into Python ints first.
_EXACT_FROM = 1 << 62


def _bits(mask: int, n: int) -> np.ndarray:
    """Bit i of mask, for i in 0..n-1, as a boolean array."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def _place(dense: int, positions: list[int]) -> int:
    """The mask with bit positions[i] set for every bit i of dense."""
    out = 0
    for i in elements(dense):
        out |= 1 << positions[i]
    return out


def _doubling(n: int, support: int, seed: int, r: int, rounds: int, violators_of,
              stop: bool) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """The weight-doubling loop: up to `rounds` rounds of a weighted sample R
    of r slips, its violators v = violators_of(R), a mask inside the
    support, and the doubling of their weights; with stop, the rounds end
    at the first one without violators. Weights start at 1 on the support
    and are kept for the support's elements only, in order, so every
    sample lies in the support. Returns each round's (R, v, total weight
    after doubling) and the final weights of the support's elements."""
    confined = support != full_mask(n)
    positions = elements(support) if confined else None
    on_support = _bits(support, n) if confined else None
    mu = np.ones(support.bit_count(), np.int64)
    total = len(mu)     # sum(mu), exact
    rng = random.Random(spawn(seed, 0))
    rows: list[tuple[int, int, int]] = []
    for _ in range(rounds):
        sample = weighted_sample(mu, r, rng)
        if confined:
            sample = _place(sample, positions)
        v = violators_of(sample)
        if v:
            hit = _bits(v, n)
            if confined:
                hit = hit[on_support]
            doubled = mu[hit]
            total += int(doubled.sum())
            if total >= _EXACT_FROM and mu.dtype != object:
                mu = mu.astype(object)
            mu[hit] = doubled * 2   # below 2^63: each was below the old total
        rows.append((sample, v, total))
        if stop and v == 0:
            break
    return rows, mu


@dataclass(frozen=True, slots=True)
class DoublingTrace(RunTrace):
    """Rounds of a weight-doubling run: its seed, n, r, the support its
    weights start on (1 on it, 0 off it), None for the whole ground set,
    and its violators column. A round's sample depends only on the seed
    and the violators of the rounds before it, so rounds and final_weights
    rerun the doubling loop with the column as its source of violators,
    and ask no handle."""

    seed: int
    violators: tuple[int, ...]
    ground_size: int
    slips: int
    support: int | None
    delegated = False

    @property
    def terminated_cleanly(self) -> bool:
        return not self.violators or self.violators[-1] == 0

    def _rerun(self) -> tuple[list[tuple[int, int, int]], np.ndarray]:
        n = self.ground_size
        column = iter(self.violators)
        return _doubling(n, full_mask(n) if self.support is None else self.support, self.seed,
                         self.slips, len(self.violators), lambda _: next(column), stop=False)

    @property
    def rounds(self) -> tuple[RoundRecord, ...]:
        rows, _ = self._rerun()
        return tuple(RoundRecord(sample=s, violators=v, weight_total=t) for s, v, t in rows)

    @property
    def final_weights(self) -> tuple[int, ...]:
        """2^k for an element of the support, k its doublings; 0 off it."""
        _, mu = self._rerun()
        if self.support is None:
            return tuple(mu.tolist())
        weights = [0] * self.ground_size
        for e, w in zip(elements(self.support), mu.tolist()):
            weights[e] = w
        return tuple(weights)


def _doubling_rounds(space: ViolatorSpace, support: int, seed: int, r: int, rounds: int,
                     stop: bool) -> tuple[DoublingTrace, int]:
    """The doubling loop on the handle, each round's violators V(R) &
    support; V(R) is V of every basis of R by locality, so a round
    searches for no basis. Returns the trace and the last sample (0
    without rounds)."""
    rows, _ = _doubling(space.n, support, seed, r, rounds,
                        lambda sample: space.violators(sample) & support, stop)
    trace = DoublingTrace(seed=seed, violators=tuple(v for _, v, _ in rows), ground_size=space.n,
                          slips=r, support=None if support == space.ground else support)
    return trace, rows[-1][0] if rows else 0


def swiss_algorithm(space: ViolatorSpace, seed: int, c: float = 2.0) -> SolveResult:
    """Weight-doubling solver.

    Rounds draw a weighted sample R and double the weight of every element
    of V(R); a round with no violators ends the run, and the result is
    find_basis of its sample, the one basis search of the run. When n <= r
    the solver degenerates to find_basis on the full ground set (delegated
    trace, zero rounds).
    Exceeding the safety cap, default_safety_cap(d, n) rounds, raises
    SolverStall with the trace attached.
    """
    return _swiss(space, space.ground, seed, c)


def _swiss(space: ViolatorSpace, support: int, seed: int, c: float) -> SolveResult:
    """swiss_algorithm confined to `support`, with n = |support|.

    Weights are kept for the support's elements only, so every sample lies
    in it; each sample, oracle call and the basis are those of the run on
    the space restricted to the support, placed at the support's positions
    (the tests keep that restriction as the oracle). The trace keeps the
    handle's indexing.
    """
    d = resolve_dimension(space)
    n = support.bit_count()
    r = swiss_sample_size(d, n, c)
    if n <= r:
        return SolveResult(find_basis(space, support), _DELEGATED)

    cap = default_safety_cap(d, n)
    trace, last = _doubling_rounds(space, support, seed, r, cap, stop=True)
    if not trace.terminated_cleanly:
        raise SolverStall(f"no violator-free basis within {cap} rounds", trace)
    return SolveResult(find_basis(space, last), trace)


def sa_forever(space: ViolatorSpace, seed: int, max_rounds: int,
               c: float = 2.0) -> RunTrace:
    """Run the weight-doubling loop for exactly max_rounds rounds.

    There is no termination check: a quiet round does not stop the loop,
    and later samples may double weights again. That makes per-round
    events like "the first k rounds all had violators" measurable over a
    fixed horizon. Refuses r >= n: sampling r of n slips must leave
    something out for round events to mean anything, matching the
    solvers' delegation guard.
    """
    d = resolve_dimension(space)
    n = space.n
    r = swiss_sample_size(d, n, c)
    if r >= n:
        raise ValueError(f"sample size r={r} must be below n={n} for round estimation")
    return _doubling_rounds(space, space.ground, seed, r, max_rounds, stop=False)[0]

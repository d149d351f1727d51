"""Basis solvers over violator-space handles.

Three entry points, all deterministic functions of (space, seed):

  find_basis        brute-force basis of a subset (core), the terminal solver
  german_algorithm  sample r = ceil(d*sqrt(n/2)) elements, then repeatedly
                    add the violators of a basis of the working set; needs
                    at most d+1 basis calls
  swiss_algorithm   keep an integer weight per element, sample
                    r = ceil(c*d^2) slips per round, double the weights of
                    the violators of the sample's basis until none remain

Weights are exact Python ints on purpose: totals pass 2^64 after enough
doubling rounds and sampling must stay exact.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass

from .core import (
    RoundRecord,
    RunTrace,
    ViolatorSpace,
    find_basis,
    resolve_dimension,
    restrict,
)
from .seeding import spawn
from .subsets import expand


class SolverStall(RuntimeError):
    """A solver hit its round cap; the partial trace is attached."""

    def __init__(self, message: str, trace: RunTrace):
        super().__init__(message)
        self.trace = trace


class WeightMap:
    """Integer multiplicities over the ground set, with a cached total."""

    __slots__ = ("mu", "total")

    def __init__(self, mu):
        self.mu = list(mu)
        if any(not isinstance(w, int) or w < 1 for w in self.mu):
            raise ValueError("weights must be ints >= 1")
        self.total = sum(self.mu)

    @classmethod
    def unit(cls, n: int) -> "WeightMap":
        return cls([1] * n)

    def double(self, mask: int) -> None:
        added = 0
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            added += self.mu[i]
            self.mu[i] *= 2
            m ^= low
        self.total += added

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self.mu)


@dataclass(frozen=True, slots=True)
class SolveResult:
    basis: int
    trace: RunTrace
    calls: int  # inner-solver calls (german) or sampling rounds (swiss)


def weighted_sample(weights: WeightMap, r: int, rng: random.Random) -> int:
    """Collapse of a uniform r-subset of the slip multiset.

    Element h contributes mu_h distinguishable slips. A uniform r-subset
    of all slips is drawn with Floyd's method and mapped back to element
    indices; this has the same law as removing one random slip at a time.
    The result has between 1 and r elements set.
    """
    total = weights.total
    if not 1 <= r <= total:
        raise ValueError(f"sample size {r} outside [1, {total}]")
    chosen: set[int] = set()
    for j in range(total - r, total):
        t = rng.randrange(j + 1)
        if t in chosen:
            chosen.add(j)
        else:
            chosen.add(t)
    cums = list(itertools.accumulate(weights.mu))
    mask = 0
    for slip in chosen:
        mask |= 1 << bisect.bisect_right(cums, slip)
    return mask


def german_sample_size(d: int, n: int) -> int:
    """The german solver's first sample, r = min(n, max(1, ceil(d sqrt(n/2))))."""
    return min(n, max(1, math.ceil(d * math.sqrt(n / 2.0))))


def swiss_sample_size(d: int, n: int, c: float = 2.0) -> int:
    """Slips per weight-doubling round, r = min(n, max(1, ceil(c d^2)))."""
    r = c * d * d
    if r >= n:      # also when the product overflowed to inf
        return n
    return min(n, math.ceil(max(r, 1.0)))


def _swiss_on_restriction(space: ViolatorSpace, subset: int, seed: int, d: int) -> int:
    sub = restrict(space, subset, dim_hint=d)
    res = swiss_algorithm(sub, seed)
    return expand(res.basis, subset)


def german_algorithm(space: ViolatorSpace, seed: int, inner: str = "bfa") -> SolveResult:
    """Sample-then-grow solver; at most d+1 inner-solver calls.

    Each round computes a basis B of the working set (inner="bfa": find_basis;
    inner="sa": the swiss algorithm on the restriction) and merges V(B) into
    the working set; V(B) == V(working set) by locality, and a round with
    violators adds an element of every basis of H, so d+1 rounds always suffice
    (past them it raises SolverStall). When n <= r the sample would be
    everything, so the inner solver is invoked directly on the full space
    (recorded as a delegated trace with zero rounds). A stalled inner swiss
    run raises SolverStall with the german rounds finished before it.
    """
    if inner not in ("bfa", "sa"):
        raise ValueError(f"inner solver must be 'bfa' or 'sa', got {inner!r}")
    d = resolve_dimension(space)
    n = space.n
    r = german_sample_size(d, n)
    if n <= r:
        if inner == "bfa":
            basis = find_basis(space, space.ground)
        else:
            # n <= r implies n <= 2d^2, so this swiss run delegates too and
            # cannot stall.
            basis = swiss_algorithm(space, spawn(seed, 1)).basis
        trace = RunTrace(kind="ga", initial=None, rounds=(),
                         terminated_cleanly=True, delegated=True)
        return SolveResult(basis, trace, 1)

    rng = random.Random(spawn(seed, 0))
    sample = weighted_sample(WeightMap.unit(n), r, rng)
    g = sample
    recs: list[RoundRecord] = []
    calls = 0
    while True:
        if calls >= d + 1:
            raise SolverStall(
                f"basis loop ran past {d + 1} rounds; the handle does not "
                f"satisfy the violator-space axioms",
                RunTrace(kind="ga", initial=sample, rounds=tuple(recs), terminated_cleanly=False))
        calls += 1
        if inner == "bfa":
            b = find_basis(space, g)
        else:
            try:
                b = _swiss_on_restriction(space, g, spawn(seed, calls), d)
            except SolverStall as stall:
                raise SolverStall(
                    f"inner swiss run stalled: {stall}",
                    RunTrace(kind="ga", initial=sample, rounds=tuple(recs),
                             terminated_cleanly=False)) from stall
        v = space.violators(b)
        recs.append(RoundRecord(index=calls, sample=g, basis=b,
                                violators=v, working=g | v))
        g |= v
        if v == 0:
            trace = RunTrace(kind="ga", initial=sample, rounds=tuple(recs),
                             terminated_cleanly=True)
            return SolveResult(b, trace, calls)


def default_safety_cap(d: int, n: int) -> int:
    return math.ceil(64 * (d + 1) * (math.log2(max(n, 2)) + 1))


def _doubling_rounds(space: ViolatorSpace, seed: int, r: int, weights: WeightMap,
                     rounds: int):
    """Lazily yield up to `rounds` rounds of: weighted sample of r slips,
    its basis B, the global violators of B, double their weights in place."""
    rng = random.Random(spawn(seed, 0))
    for i in range(1, rounds + 1):
        sample = weighted_sample(weights, r, rng)
        b = find_basis(space, sample)
        v = space.violators(b)
        weights.double(v)
        yield RoundRecord(index=i, sample=sample, basis=b, violators=v,
                          slips=r, weight_total=weights.total)


def swiss_algorithm(space: ViolatorSpace, seed: int, c: float = 2.0) -> SolveResult:
    """Weight-doubling solver.

    Rounds draw a weighted sample R, compute its basis B = find_basis(R),
    and double the weight of every global violator of B; a round with no
    violators ends the run. When n <= r the solver degenerates to
    find_basis on the full ground set (delegated trace, zero rounds).
    Exceeding the safety cap, default_safety_cap(d, n) rounds, raises
    SolverStall with the trace attached.
    """
    d = resolve_dimension(space)
    n = space.n
    r = swiss_sample_size(d, n, c)
    if n <= r:
        basis = find_basis(space, space.ground)
        trace = RunTrace(kind="sa", initial=None, rounds=(),
                         terminated_cleanly=True, delegated=True)
        return SolveResult(basis, trace, 1)

    cap = default_safety_cap(d, n)
    weights = WeightMap.unit(n)
    recs: list[RoundRecord] = []
    for rec in _doubling_rounds(space, seed, r, weights, cap):
        recs.append(rec)
        if rec.violators == 0:
            break
    clean = bool(recs) and recs[-1].violators == 0
    trace = RunTrace(kind="sa", initial=None, rounds=tuple(recs),
                     terminated_cleanly=clean, final_weights=weights.snapshot())
    if not clean:
        raise SolverStall(f"no violator-free basis within {cap} rounds", trace)
    return SolveResult(recs[-1].basis, trace, len(recs))


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
    weights = WeightMap.unit(n)
    recs = tuple(_doubling_rounds(space, seed, r, weights, max_rounds))
    clean = not recs or recs[-1].violators == 0
    return RunTrace(kind="sa-forever", initial=None, rounds=recs,
                    terminated_cleanly=clean, final_weights=weights.snapshot())

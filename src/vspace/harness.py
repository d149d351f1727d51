"""Exact sampling statistics and seeded benchmark experiments.

The statistics side reads |V(R)| and |X(R)| of every subset R from one
exact pass over the violator table (core.subset_counts) and keeps exact
rationals, so the sampling identity can be asserted with zero tolerance. The
experiment side drives the solvers across seeded trials and compares
measured quantities against their analytic bounds; expectation bounds
get a 5 percent slack, probability bounds a three-sigma binomial slack,
and structural bounds (round counts) none at all.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

from .algorithms import (SolverStall, german_algorithm, german_sample_size, sa_forever,
                         swiss_algorithm, swiss_sample_size)
from .core import (
    ViolatorSpace,
    check_axioms,
    composite_rounds,
    composite_space,
    combinatorial_dimension,
    is_nondegenerate,
    resolve_dimension,
    subset_counts,
)
from .instances import _write_json, tabulate
from .seeding import spawn

SAMPLING_STATS_LIMIT = 14
COMPOSITE_LIMIT = 8
TRACE_COLUMNS = ("trial", "round", "sample_size", "collapsed_sample_size",
                 "violator_count", "working_or_weight", "controversial")

LOG2_E = math.log2(math.e)


@dataclass(frozen=True)
class SamplingStats:
    """Exact expectations over uniform r-subsets, E|V(R)| and E|X(R)|, and max |X(R)|."""

    r: int
    v: Fraction
    x: Fraction
    x_max: int


@dataclass(frozen=True)
class BoundParams:
    """Parameters feeding the sampling-loop bounds.

    alpha = 2^((log2(e) - c) / (c d)) is the per-round decay rate of the
    probability that every round so far had violators; it is below 1
    exactly when c > log2(e). At d = 0 it takes its limit, 0. A c so
    large or so close to log2(e) that alpha rounds to 1 leaves no decay
    to bound the rounds with, and is refused too.
    """

    d: int
    n: int
    c: float = 2.0
    beta: float = 2.0

    @property
    def r_sa(self) -> int:
        return swiss_sample_size(self.d, self.n, self.c)

    @property
    def alpha(self) -> float:
        if self.c <= LOG2_E:
            raise ValueError(f"c={self.c} must exceed log2(e)={LOG2_E:.6f} for decay")
        if self.d == 0:
            return 0.0
        alpha = 2.0 ** ((LOG2_E - self.c) / (self.c * self.d))
        if alpha >= 1.0:
            raise ValueError(f"c={self.c} leaves no decay at d={self.d}: alpha rounds to 1")
        return alpha

    def round_bound(self) -> float:
        """beta * log_{1/alpha}(n) + 1, the expected-round budget; 1 at its limits."""
        alpha = self.alpha
        if alpha == 0.0 or self.n <= 1:
            return 1.0
        return self.beta * math.log(self.n) / -math.log(alpha) + 1.0


def exact_sampling_stats(space: ViolatorSpace, r: int) -> SamplingStats:
    """E|V(R)|, E|X(R)| and max |X(R)| over all C(n, r) subsets R of size r.

    Exact rationals, no floats, from one subset_counts pass; X(R) is the
    mask extreme_elements gives, on any handle. Refuses n above
    SAMPLING_STATS_LIMIT and r outside [0, n].
    """
    n = space.n
    _refuse_large(n)
    if not 0 <= r <= n:
        raise ValueError(f"subset size {r} outside [0, {n}]")
    return _stats_at(n, r, subset_counts(space))


def _refuse_large(n: int) -> None:
    if n > SAMPLING_STATS_LIMIT:
        raise ValueError(f"exact stats refused: n={n} exceeds {SAMPLING_STATS_LIMIT}")


def _stats_at(n: int, r: int, counts) -> SamplingStats:
    """The SamplingStats of size r, from the arrays of subset_counts."""
    size, violated, extreme = counts
    at_r = size == r
    count = math.comb(n, r)
    return SamplingStats(r, Fraction(int(violated[at_r].sum()), count),
                         Fraction(int(extreme[at_r].sum()), count), int(extreme[at_r].max()))


@dataclass(frozen=True)
class SamplingIdentityRow:
    r: int
    v: Fraction
    x_next: Fraction
    lhs: Fraction               # v_r / (n - r)
    rhs: Fraction               # x_{r+1} / (r + 1)
    equal: bool
    corollary_bound: Fraction   # d (n - r) / (r + 1)
    corollary_ok: bool


@dataclass(frozen=True)
class SamplingReport:
    n: int
    d: int
    rows: tuple[SamplingIdentityRow, ...]
    extreme_bound_ok: bool      # |X(R)| <= d for every single R

    @property
    def identity_ok(self) -> bool:
        return all(row.equal for row in self.rows)

    @property
    def corollary_ok(self) -> bool:
        return all(row.corollary_ok for row in self.rows)

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.corollary_ok and self.extreme_bound_ok


def verify_sampling_lemma(space: ViolatorSpace, d: int | None = None) -> SamplingReport:
    """Check v_r/(n-r) == x_{r+1}/(r+1) for every r, plus the d-bounds.

    The identity is exact (zero tolerance). The corollary bound
    v_r <= d (n-r)/(r+1) and the per-subset bound |X(R)| <= d use the
    exact combinatorial dimension unless one is supplied. The statistics
    of every r come from one subset_counts pass.
    """
    n = space.n
    if d is None:
        d = combinatorial_dimension(space)
    _refuse_large(n)
    counts = subset_counts(space)
    stats = [_stats_at(n, r, counts) for r in range(n + 1)]
    rows = []
    for r in range(n):
        v = stats[r].v
        x_next = stats[r + 1].x
        lhs = v / (n - r)
        rhs = x_next / (r + 1)
        cor = Fraction(d * (n - r), r + 1)
        rows.append(SamplingIdentityRow(
            r=r, v=v, x_next=x_next, lhs=lhs, rhs=rhs, equal=lhs == rhs,
            corollary_bound=cor, corollary_ok=v <= cor))
    extreme_ok = all(s.x_max <= d for s in stats)
    return SamplingReport(n, d, tuple(rows), extreme_ok)


def _mean_ci95(values) -> tuple[float, float, float]:
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, mean, mean
    half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
    return mean, mean - half, mean + half


def _metric(name: str, measured, bound, at_most: bool = True) -> dict:
    """A report row that passes when measured <= bound, or, for counts and
    flags (at_most=False), when measured == bound."""
    ok = measured <= bound if at_most else measured == bound
    return {"name": name, "measured": measured, "bound": bound, "pass": ok}


def _finished_trials(solve, trials: int, seed: int) -> tuple[list, int]:
    """solve(spawn(seed, t)) for each trial t that raises no SolverStall, and the stall count."""
    results = []
    for t in range(trials):
        try:
            results.append(solve(spawn(seed, t)))
        except SolverStall:
            pass
    return results, trials - len(results)


def ga_experiment(space: ViolatorSpace, trials: int, seed: int,
                  inner: str = "bfa") -> dict:
    """Seeded german-algorithm trials with the round and size bounds.

    Round bound: no trial may take more than d+1 inner calls, no slack.
    Size bound: the mean of the final working-set size is compared to
    2(d+1)sqrt(n/2) with 5 percent slack, and a 95 percent confidence
    interval for that mean is reported. Delegated trials (n <= r) count
    the whole ground set as their working set. Stalled trials are left out
    and, only if there are any, counted in the summary and a failing metric.
    """
    d = resolve_dimension(space)
    n = space.n
    r = german_sample_size(d, n)
    traces, stalled = _finished_trials(
        lambda s: german_algorithm(space, s, inner=inner).trace, trials, seed)
    rounds = [len(tr.violators) for tr in traces]
    delegated = sum(tr.delegated for tr in traces)
    # Growth rounds only add, so the last round's working set is the largest.
    max_working = [n if tr.delegated else tr.working.bit_count() for tr in traces]
    size_bound = 2.0 * (d + 1) * math.sqrt(n / 2.0)
    mean, lo, hi = _mean_ci95(max_working) if max_working else (math.inf,) * 3
    rounds_max = max(rounds, default=0)
    metrics = [
        _metric("inner calls <= d+1", rounds_max, d + 1),
        _metric("mean final working-set size, 5% slack", mean, size_bound * 1.05),
    ]
    summary = {"rounds_max": rounds_max,
               "rounds_mean": statistics.fmean(rounds) if rounds else math.inf,
               "delegated_trials": delegated,
               "max_working_mean": mean,
               "max_working_ci95": [lo, hi],
               "size_bound": size_bound}
    if stalled:
        metrics.append(_metric("trials finishing before the safety cap", trials - stalled,
                               trials, at_most=False))
        summary["stalled"] = stalled
    return {
        "experiment": "ga",
        "config": {"n": n, "d": d, "r": r, "inner": inner,
                   "trials": trials, "seed": seed},
        "summary": summary,
        "per_trial": {"rounds": rounds, "max_working": max_working},
        "metrics": metrics,
        "pass": all(m["pass"] for m in metrics),
    }


def sa_experiment(space: ViolatorSpace, trials: int, seed: int,
                  c: float = 2.0, beta: float = 2.0,
                  forever_traces: int = 0, forever_rounds: int = 0,
                  weight_checkpoints: int = 0) -> dict:
    """Seeded swiss-algorithm trials against their probabilistic bounds.

    Every trial must terminate before the safety cap. The mean round
    count is compared against beta * log_{1/alpha}(n) + 1. Optionally,
    fixed-length instrumented runs estimate the probability that the
    first ell rounds all had violators, which must stay below
    min(1, n alpha^ell) plus three binomial sigmas, and check the mean
    total weight after ell = k*d rounds against n (1 + d/r)^ell with
    5 percent slack.
    """
    d = resolve_dimension(space)
    n = space.n
    params = BoundParams(d=d, n=n, c=c, beta=beta)
    r = params.r_sa
    # The bounds first, so that a c they refuse is refused before any run.
    alpha = params.alpha
    round_bound = params.round_bound()
    # Forever traces next, so that sa_forever's refusal of r >= n comes
    # before the trials; their seeds do not depend on the trials.
    prefixes = []
    weight_sums = [n * forever_traces] + [0] * forever_rounds
    for t in range(forever_traces):
        trace = sa_forever(space, spawn(seed, 10_000_019 + t), forever_rounds, c=c)
        vs = trace.violators
        prefixes.append(vs.index(0) if 0 in vs else len(vs))
        if weight_checkpoints:
            for i, rec in enumerate(trace.rounds, 1):
                weight_sums[i] += rec.weight_total
    rounds, stalled = _finished_trials(
        lambda s: len(swiss_algorithm(space, s, c=c).trace.violators), trials, seed)
    mean_rounds = statistics.fmean(rounds) if rounds else math.inf
    metrics = [
        _metric("trials finishing before the safety cap", trials - stalled, trials,
                at_most=False),
        _metric("mean rounds <= beta*log_{1/alpha}(n) + 1", mean_rounds, round_bound),
    ]
    report = {
        "experiment": "sa",
        "config": {"n": n, "d": d, "r": r, "c": c, "beta": beta,
                   "alpha": alpha, "trials": trials, "seed": seed,
                   "forever_traces": forever_traces,
                   "forever_rounds": forever_rounds,
                   "weight_checkpoints": weight_checkpoints},
        "summary": {"rounds_mean": mean_rounds,
                    "rounds_max": max(rounds) if rounds else 0,
                    "stalled": stalled,
                    "round_bound": round_bound},
        "per_trial": {"rounds": rounds},
        "metrics": metrics,
    }

    if forever_traces:
        tail = []
        for ell in range(1, forever_rounds + 1):
            phat = sum(1 for k in prefixes if k >= ell) / forever_traces
            bound = min(1.0, n * alpha ** ell)
            var = max(bound * (1.0 - bound), phat * (1.0 - phat))
            slack = 3.0 * math.sqrt(var / forever_traces)
            tail.append({"ell": ell, "measured": phat,
                         "bound": bound, "slack": slack,
                         "pass": phat <= bound + slack})
        report["tail"] = tail
        metrics.append(_metric("controversial-prefix probabilities within bound",
                               sum(row["pass"] for row in tail), len(tail), at_most=False))
        if weight_checkpoints:
            growth = []
            for k in range(1, weight_checkpoints + 1):
                ell = k * d
                if ell > forever_rounds:
                    break
                measured = weight_sums[ell] / forever_traces
                bound = n * (1.0 + d / r) ** ell
                growth.append({"ell": ell, "measured": measured,
                               "bound": bound * 1.05,
                               "pass": measured <= bound * 1.05})
            report["weight_growth"] = growth
            metrics.append(_metric("mean total weight after k*d rounds, 5% slack",
                                   sum(row["pass"] for row in growth), len(growth),
                                   at_most=False))

    report["pass"] = all(m["pass"] for m in metrics)
    return report


def composite_experiment(space: ViolatorSpace) -> dict:
    """Tabulate the composite space of a small base space and verify it.

    Checks: axioms hold; the composite violators of every subset, which
    the table holds in difference form (final working set minus the
    start), equal the union of the per-round violator sets, as they do
    when every round's violators miss its working set (consistency); the
    composite dimension is at most d(d+1)/2;
    nondegeneracy is inherited when the base space has it; and the
    sampling identity plus the corollary at the d(d+1)/2 bound hold on
    the composite table. Base nondegeneracy is None if the base fails the axioms.
    """
    n = space.n
    if n > COMPOSITE_LIMIT:
        raise ValueError(f"composite experiment refused: n={n} exceeds {COMPOSITE_LIMIT}")
    d = resolve_dimension(space)
    bound_d = d * (d + 1) // 2
    comp = composite_space(space)
    tab = tabulate(comp, certify=True)

    forms_ok = True
    for g in range(1 << n):
        union = 0
        for v in composite_rounds(space, g).violators:
            union |= v
        if tab.table[g] != union:
            forms_ok = False
            break

    dim_comp = combinatorial_dimension(tab)
    base_nondeg = is_nondegenerate(space) if check_axioms(space).ok else None
    inherited = is_nondegenerate(tab) if base_nondeg else None

    sampling = verify_sampling_lemma(tab, d=bound_d)

    metrics = [
        _metric("composite axioms", bool(tab.axiom_report.ok), True, at_most=False),
        _metric("union and difference forms agree", forms_ok, True, at_most=False),
        _metric("composite dimension <= d(d+1)/2", dim_comp, bound_d),
    ]
    if base_nondeg:
        metrics.append(_metric("nondegeneracy inherited", bool(inherited), True, at_most=False))
    metrics.append(_metric("sampling identity and corollary on composite", bool(sampling.ok),
                           True, at_most=False))
    return {
        "experiment": "composite",
        "config": {"n": n, "d": d, "dim_bound": bound_d},
        "summary": {"composite_dimension": dim_comp,
                    "base_nondegenerate": base_nondeg},
        "metrics": metrics,
        "pass": all(m["pass"] for m in metrics),
    }


def trace_rows(trial: int, trace) -> list[tuple]:
    """Flatten a RunTrace into CSV rows (one per round)."""
    rows = []
    for i, rec in enumerate(trace.rounds, 1):
        if rec.weight_total is not None:
            ssize = trace.slips
            csize = rec.sample.bit_count()
            wow = rec.weight_total
        else:
            ssize = rec.sample.bit_count()
            csize = ssize
            wow = rec.working.bit_count()
        rows.append((trial, i, ssize, csize,
                     rec.violators.bit_count(), wow, int(rec.controversial)))
    return rows


def write_trace_csv(path, traces) -> None:
    """traces: iterable of (trial, RunTrace). Output is byte-stable."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for trial, trace in traces:
            writer.writerows(trace_rows(trial, trace))


def write_report(report: dict, path) -> None:
    _write_json(report, path, indent=2)

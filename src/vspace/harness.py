"""Exact sampling statistics and seeded benchmark experiments.

The statistics side enumerates every r-subset and keeps exact rationals,
so the sampling identity can be asserted with zero tolerance. The
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
    extreme_elements,
    combinatorial_dimension,
    is_nondegenerate,
    resolve_dimension,
)
from .instances import _write_json, tabulate
from .seeding import spawn
from .subsets import full_mask, iter_size_k_submasks

SAMPLING_STATS_LIMIT = 14
COMPOSITE_LIMIT = 8
TRACE_COLUMNS = ("trial", "round", "sample_size", "collapsed_sample_size",
                 "violator_count", "working_or_weight", "controversial")

LOG2_E = math.log2(math.e)


@dataclass(frozen=True)
class SamplingStats:
    """Exact expectations over uniform r-subsets: E|V(R)| and E|X(R)|."""

    r: int
    v: Fraction
    x: Fraction


@dataclass(frozen=True)
class BoundParams:
    """Parameters feeding the sampling-loop bounds.

    alpha = 2^((log2(e) - c) / (c d)) is the per-round decay rate of the
    probability that every round so far had violators; it is below 1
    exactly when c > log2(e). At d = 0 it takes its limit, 0.
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
        return 2.0 ** ((LOG2_E - self.c) / (self.c * self.d))

    def round_bound(self) -> float:
        """beta * log_{1/alpha}(n) + 1, the expected-round budget; 1 at its limits."""
        alpha = self.alpha
        if alpha == 0.0 or self.n <= 1:
            return 1.0
        return self.beta * math.log(self.n) / -math.log(alpha) + 1.0


def exact_sampling_stats(space: ViolatorSpace, r: int) -> SamplingStats:
    """Full enumeration of the C(n, r) subsets; exact rationals, no floats."""
    n = space.n
    if n > SAMPLING_STATS_LIMIT:
        raise ValueError(f"exact stats refused: n={n} exceeds {SAMPLING_STATS_LIMIT}")
    if not 0 <= r <= n:
        raise ValueError(f"subset size {r} outside [0, {n}]")
    total_v = 0
    total_x = 0
    for mask in iter_size_k_submasks(full_mask(n), r):
        total_v += space.violators(mask).bit_count()
        total_x += extreme_elements(space, mask).bit_count()
    count = math.comb(n, r)
    return SamplingStats(r, Fraction(total_v, count), Fraction(total_x, count))


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
    exact combinatorial dimension unless one is supplied.
    """
    n = space.n
    if d is None:
        d = combinatorial_dimension(space)
    stats = [exact_sampling_stats(space, r) for r in range(n + 1)]
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
    extreme_ok = all(extreme_elements(space, mask).bit_count() <= d for mask in range(1 << n))
    return SamplingReport(n, d, tuple(rows), extreme_ok)


def _mean_ci95(values) -> tuple[float, float, float]:
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, mean, mean
    half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
    return mean, mean - half, mean + half


def ga_experiment(space: ViolatorSpace, trials: int, seed: int,
                  inner: str = "bfa") -> dict:
    """Seeded german-algorithm trials with the round and size bounds.

    Round bound: no trial may take more than d+1 inner calls, no slack.
    Size bound: the mean of the final working-set size is compared to
    2(d+1)sqrt(n/2) with 5 percent slack, and a 95 percent confidence
    interval for that mean is reported. Delegated trials (n <= r) count
    the whole ground set as their working set.
    """
    d = resolve_dimension(space)
    n = space.n
    r = german_sample_size(d, n)
    rounds = []
    max_working = []
    delegated = 0
    for t in range(trials):
        res = german_algorithm(space, spawn(seed, t), inner=inner)
        rounds.append(len(res.trace.rounds))
        if res.trace.delegated:
            delegated += 1
            max_working.append(n)
        else:
            max_working.append(max(rec.working.bit_count() for rec in res.trace.rounds))
    size_bound = 2.0 * (d + 1) * math.sqrt(n / 2.0)
    mean, lo, hi = _mean_ci95(max_working)
    rounds_max = max(rounds)
    metrics = [
        {"name": "inner calls <= d+1", "measured": rounds_max,
         "bound": d + 1, "pass": rounds_max <= d + 1},
        {"name": "mean final working-set size, 5% slack",
         "measured": mean, "bound": size_bound * 1.05,
         "pass": mean <= size_bound * 1.05},
    ]
    return {
        "experiment": "ga",
        "config": {"n": n, "d": d, "r": r, "inner": inner,
                   "trials": trials, "seed": seed},
        "summary": {"rounds_max": rounds_max,
                    "rounds_mean": statistics.fmean(rounds),
                    "delegated_trials": delegated,
                    "max_working_mean": mean,
                    "max_working_ci95": [lo, hi],
                    "size_bound": size_bound},
        "per_trial": {"rounds": rounds, "max_working": max_working},
        "metrics": metrics,
        "pass": all(m["pass"] for m in metrics),
    }


def _controversial_prefix(trace) -> int:
    k = 0
    for rec in trace.rounds:
        if not rec.controversial:
            break
        k += 1
    return k


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
    # Forever traces first, so that sa_forever's refusal of r >= n comes
    # before the trials; their seeds do not depend on the trials.
    prefixes = []
    weight_sums = [0] * (forever_rounds + 1)
    for t in range(forever_traces):
        trace = sa_forever(space, spawn(seed, 10_000_019 + t), forever_rounds, c=c)
        prefixes.append(_controversial_prefix(trace))
        for rec in trace.rounds:
            weight_sums[rec.index] += rec.weight_total
    rounds = []
    stalled = 0
    for t in range(trials):
        try:
            res = swiss_algorithm(space, spawn(seed, t), c=c)
        except SolverStall:
            stalled += 1
            continue
        rounds.append(len(res.trace.rounds))
    round_bound = params.round_bound()
    mean_rounds = statistics.fmean(rounds) if rounds else math.inf
    metrics = [
        {"name": "trials finishing before the safety cap",
         "measured": trials - stalled, "bound": trials,
         "pass": stalled == 0},
        {"name": "mean rounds <= beta*log_{1/alpha}(n) + 1",
         "measured": mean_rounds, "bound": round_bound,
         "pass": mean_rounds <= round_bound},
    ]
    report = {
        "experiment": "sa",
        "config": {"n": n, "d": d, "r": r, "c": c, "beta": beta,
                   "alpha": params.alpha, "trials": trials, "seed": seed,
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
        alpha = params.alpha
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
        metrics.append({"name": "controversial-prefix probabilities within bound",
                        "measured": sum(1 for row in tail if row["pass"]),
                        "bound": len(tail),
                        "pass": all(row["pass"] for row in tail)})
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
            metrics.append({"name": "mean total weight after k*d rounds, 5% slack",
                            "measured": sum(1 for row in growth if row["pass"]),
                            "bound": len(growth),
                            "pass": all(row["pass"] for row in growth)})

    report["pass"] = all(m["pass"] for m in metrics)
    return report


def composite_experiment(space: ViolatorSpace) -> dict:
    """Tabulate the composite space of a small base space and verify it.

    Checks: axioms hold; the composite violators of every subset, which
    the table holds in difference form (final working set minus the
    start), equal the union of the per-round violator sets minus the
    start; the composite dimension is at most d(d+1)/2;
    nondegeneracy is inherited when the base space has it; and the
    sampling identity plus the corollary at the d(d+1)/2 bound hold on
    the composite table. Base nondegeneracy is None if the base fails the axioms.
    """
    n = space.n
    if n > COMPOSITE_LIMIT:
        raise ValueError(f"composite experiment refused: n={n} exceeds {COMPOSITE_LIMIT}")
    d = resolve_dimension(space)
    bound_d = d * (d + 1) // 2
    comp = composite_space(space, d)
    tab = tabulate(comp, certify=True)

    forms_ok = True
    for g in range(1 << n):
        trace = composite_rounds(space, g, d)
        union = 0
        for rec in trace.rounds:
            union |= rec.violators
        if tab.table[g] != union & ~g:
            forms_ok = False
            break

    dim_comp = combinatorial_dimension(tab)
    base_nondeg = is_nondegenerate(space) if check_axioms(space).ok else None
    inherited = is_nondegenerate(tab) if base_nondeg else None

    sampling = verify_sampling_lemma(tab, d=bound_d) if n <= SAMPLING_STATS_LIMIT else None

    metrics = [
        {"name": "composite axioms", "measured": bool(tab.axiom_report.ok),
         "bound": True, "pass": bool(tab.axiom_report.ok)},
        {"name": "union and difference forms agree", "measured": forms_ok,
         "bound": True, "pass": forms_ok},
        {"name": "composite dimension <= d(d+1)/2", "measured": dim_comp,
         "bound": bound_d, "pass": dim_comp <= bound_d},
    ]
    if base_nondeg:
        metrics.append({"name": "nondegeneracy inherited", "measured": bool(inherited),
                        "bound": True, "pass": bool(inherited)})
    if sampling is not None:
        metrics.append({"name": "sampling identity and corollary on composite",
                        "measured": bool(sampling.ok), "bound": True,
                        "pass": bool(sampling.ok)})
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
    for rec in trace.rounds:
        if rec.weight_total is not None:
            ssize = rec.slips
            csize = rec.sample.bit_count()
            wow = rec.weight_total
        else:
            ssize = rec.sample.bit_count()
            csize = ssize
            wow = rec.working.bit_count() if rec.working is not None else ""
        rows.append((trial, rec.index, ssize, csize,
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

"""Violator space primitives: axioms, bases, dimension, composite violators.

A violator space on H = {0, ..., n-1} is a map V from subsets of H to
subsets of H satisfying two axioms:

  consistency:  G & V(G) == 0 for every G
  locality:     F subset of G and G & V(F) == 0  implies  V(F) == V(G)

Monotonicity (F subset of E subset of G and V(F) == V(G) implies
V(E) == V(F)) follows from the two axioms and is checked separately as a
sanity property on small ground sets.

Bases and the dimension are read off the extreme elements X(G), those
whose removal changes V(G): under the axioms B is a basis iff X(B) == B.

Subsets are bitmasks (see subsets.py). All operations here are exact
integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .subsets import (
    expand,
    compress,
    elements,
    full_mask,
    interval_hull,
    iter_by_size_then_value,
    iter_submasks_ascending,
)

AXIOM_CHECK_LIMIT = 20        # full 2^n enumeration beyond this is refused
MONOTONE_CHECK_LIMIT = 12     # triple enumeration is refused above this
DIMENSION_LIMIT = 16
FIND_BASIS_SIZE_LIMIT = 24
MAX_COUNTEREXAMPLES = 16
DEFAULT_BASIS_BUDGET = 1 << 22


class BudgetExceeded(RuntimeError):
    """Raised when a subset enumeration exceeds its evaluation budget."""


class ViolatorSpace:
    """Handle for a violator space: the one interface the solvers see.

    A handle subclasses ViolatorSpace and defines `n` and
    `violators(subset)`. The optional parts have their defaults here:

    dim_hint defaults to None. When set, it is a trusted upper bound on
    the combinatorial dimension, used wherever a dimension parameter is
    required; when unset, resolve_dimension fills it with the exact one.

    extreme_candidates(subset) defaults to the whole subset. A handle may
    return less: a mask holding every element of `subset` whose removal
    changes V(subset), and maybe more. It must hold them exactly, by the
    handle's own computation of V and not by the axioms, since
    extreme_elements probes nothing else.

    violator_table() defaults to V of every subset, in mask order. A
    handle may build the list faster, but it must equal that loop entry
    for entry, by the handle's own computation and not by the axioms.
    """

    n: int
    dim_hint: int | None = None

    def violators(self, subset: int) -> int:
        raise NotImplementedError

    def extreme_candidates(self, subset: int) -> int:
        return subset

    def violator_table(self) -> list[int]:
        return [self.violators(g) for g in range(1 << self.n)]

    @property
    def ground(self) -> int:
        return (1 << self.n) - 1


class FuncSpace(ViolatorSpace):
    """Violator space defined by an arbitrary callable."""

    def __init__(self, n: int, fn, dim_hint: int | None = None):
        self.n = n
        self._fn = fn
        self.dim_hint = dim_hint

    def violators(self, subset: int) -> int:
        return self._fn(subset)


class RestrictedSpace(ViolatorSpace):
    """View of a space restricted to a support set, reindexed densely.

    The restricted map is F -> V(F) & support, with masks translated to a
    dense 0..k-1 indexing. Use subsets.expand/compress with the support
    mask to translate results back.
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


def restrict(space: ViolatorSpace, support: int, dim_hint: int | None = None) -> RestrictedSpace:
    return RestrictedSpace(space, support, dim_hint)


@dataclass(frozen=True)
class Counterexample:
    axiom: str
    f: int
    g: int
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    consistent: bool
    local: bool
    monotone: bool | None          # None means the check was skipped (n too big)
    counterexamples: tuple[Counterexample, ...]

    @property
    def ok(self) -> bool:
        return self.consistent and self.local and self.monotone is not False


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """One round of an iterative solver run (or of the composite iteration)."""

    index: int
    sample: int
    violators: int
    slips: int | None = None          # multiset slips requested, where applicable
    weight_total: int | None = None   # total weight after doubling, where applicable

    @property
    def controversial(self) -> bool:
        return self.violators != 0

    @property
    def working(self) -> int:
        """The working set after a growth round (see growth_rounds)."""
        return self.sample | self.violators


@dataclass(frozen=True, slots=True)
class RunTrace:
    kind: str                          # "ga" | "sa" | "sa-forever" | "composite"
    initial: int | None
    rounds: tuple[RoundRecord, ...]
    terminated_cleanly: bool
    delegated: bool = False
    ground_size: int | None = None     # n of a weight-doubling run, else None

    @property
    def final_weights(self) -> tuple[int, ...] | None:
        """Weights after a weight-doubling run: element e ends at 2^k, k the
        number of rounds whose violators hold e. None for other runs."""
        if self.ground_size is None:
            return None
        doublings = [0] * self.ground_size
        for rec in self.rounds:
            for e in elements(rec.violators):
                doublings[e] += 1
        return tuple(1 << k for k in doublings)


def check_axioms(space: ViolatorSpace) -> AxiomReport:
    """Exhaustively verify consistency and locality; monotonicity on small n.

    Locality is checked one added element at a time, in n 2^n steps:
    V(F | {x}) == V(F) for consistent F and x outside F | V(F). These steps
    chain to the full axiom, and a failing one is itself a counterexample.
    Refuses n > 20 rather than silently sampling. Monotonicity is only
    enumerated for n <= 12 and reported as None above that. At most 16
    counterexamples are recorded.
    """
    n = space.n
    if n > AXIOM_CHECK_LIMIT:
        raise ValueError(f"axiom check refused: n={n} exceeds {AXIOM_CHECK_LIMIT}")
    full = full_mask(n)
    table = [space.violators(g) for g in range(1 << n)]

    witnesses: list[Counterexample] = []
    consistent = True
    for g in range(1 << n):
        bad = g & table[g]
        if bad:
            consistent = False
            if len(witnesses) < MAX_COUNTEREXAMPLES:
                witnesses.append(Counterexample(
                    "consistency", g, g, f"G & V(G) == {bad:#x}"))

    local = True
    for f in range(1 << n):
        vf = table[f]
        if f & vf:
            continue  # no superset of f can avoid V(f)
        m = full & ~(f | vf)
        while m:
            low = m & -m
            m ^= low
            g = f | low
            if table[g] != vf:
                local = False
                if len(witnesses) < MAX_COUNTEREXAMPLES:
                    witnesses.append(Counterexample(
                        "locality", f, g,
                        f"V(F) == {vf:#x} but V(G) == {table[g]:#x} with G & V(F) == 0"))
                else:
                    break
        if not local and len(witnesses) >= MAX_COUNTEREXAMPLES:
            break

    monotone: bool | None
    if n > MONOTONE_CHECK_LIMIT:
        monotone = None
    else:
        monotone = True
        done = False
        for f in range(1 << n):
            vf = table[f]
            rest = full & ~f
            for s in iter_submasks_ascending(rest):
                g = f | s
                if table[g] != vf:
                    continue
                m = s
                while m:
                    e = f | m
                    if table[e] != vf:
                        monotone = False
                        if len(witnesses) < MAX_COUNTEREXAMPLES:
                            witnesses.append(Counterexample(
                                "monotonicity", f, e,
                                f"V(F) == V(G) == {vf:#x} for G == {g:#x} "
                                f"but V(E) == {table[e]:#x}"))
                        else:
                            done = True
                            break
                    m = (m - 1) & s
                if done:
                    break
            if done:
                break

    return AxiomReport(consistent, local, monotone, tuple(witnesses))


def extreme_elements(space: ViolatorSpace, subset: int) -> int:
    """Elements s of the subset whose removal changes the violator set.

    One leave-one-out oracle call per element of the handle's
    extreme_candidates (see ViolatorSpace), which by default are all of
    them; the mask is the one the full scan gives. The candidates are
    asked right after V(subset), so a handle can answer from that
    evaluation.
    """
    vr = space.violators(subset)
    out = 0
    m = subset & space.extreme_candidates(subset)
    while m:
        low = m & -m
        if space.violators(subset ^ low) != vr:
            out |= low
        m ^= low
    return out


def find_basis(space: ViolatorSpace, subset: int) -> int:
    """Minimum-cardinality B within `subset` with V(B) & subset == 0.

    The result is the first such B in (popcount, numeric value) order, so
    ties go to the smallest mask value. By locality any such B satisfies
    V(B) == V(subset), and a minimum-cardinality one is a basis.

    The enumeration only walks candidates that contain every extreme
    element X of the subset. Every valid candidate does: if s is extreme
    and B were valid with s not in B, locality would give
    V(B) == V(subset) and monotonicity over
    B subset-of subset\\{s} subset-of subset would force
    V(subset\\{s}) == V(subset), contradicting extremeness. Candidates
    X | extra with the extras walked in (popcount, numeric) order appear
    in exactly the global (popcount, numeric) order, since OR with the
    disjoint X adds a constant to both keys.

    Locality also decides some candidates without an oracle call. Every
    walked candidate is invalid (the walk did not stop there), and its V
    is kept. If b minus {e} is one of them and e is not in V(b minus {e}),
    then b meets no violator of b minus {e} (the rest of b avoids them
    by consistency), so locality gives V(b) == V(b minus {e}): b is
    invalid too, and its V is kept without asking the handle. Skipped
    candidates are never valid, so the
    returned mask is identical to that of the plain scan over all of
    `subset`, which the tests keep as the oracle for this search. Like the
    extreme pruning, this assumes the axioms; on tables that break them
    the result may differ from the scan. Every candidate, asked or
    skipped, is one evaluation, and more than DEFAULT_BASIS_BUDGET of them
    raise BudgetExceeded.
    """
    g = subset
    size = g.bit_count()
    if size > FIND_BASIS_SIZE_LIMIT and space.dim_hint is None:
        raise ValueError(
            f"refusing to enumerate bases of a {size}-element set without a dimension hint")

    x = extreme_elements(space, g)
    evals = size + 1
    walked: dict[int, int] = {}   # V(X | extra) of every candidate walked so far
    for extra in iter_by_size_then_value(g & ~x):
        evals += 1
        if evals > DEFAULT_BASIS_BUDGET:
            raise BudgetExceeded(f"basis search exceeded {DEFAULT_BASIS_BUDGET} evaluations")
        v = _decided_by_locality(walked, extra)
        if v is None:
            b = x | extra
            v = space.violators(b)
            if v & g == 0:
                return b
        walked[extra] = v
    raise ValueError(f"no basis below {g:#x}: consistency fails there")


def _decided_by_locality(walked: dict[int, int], extra: int) -> int | None:
    """V(X | extra) if some walked X | extra minus {e} has e outside its V, else None."""
    m = extra
    while m:
        e = m & -m
        m ^= e
        v = walked.get(extra ^ e)
        if v is not None and not v & e:
            return v
    return None


def is_basis(space: ViolatorSpace, subset: int) -> bool:
    """True iff every proper subset leaves a violator inside `subset`.

    Assumes the axioms, under which that fails exactly when some element
    of `subset` is not extreme (by locality, monotonicity and consistency).
    """
    return extreme_elements(space, subset) == subset


def anti_basis(space: ViolatorSpace, subset: int) -> int:
    """Largest superset of `subset` with the same violator set.

    For a space satisfying the axioms this is exactly H minus V(subset):
    it contains the subset by consistency, keeps the violator set by
    locality, and no strictly larger set can (it would have to include
    one of its own violators). Uniqueness of the maximum is what makes
    the closed form work; the brute-force maximal-superset search lives
    in the tests as an oracle.
    """
    return space.ground & ~space.violators(subset)


def combinatorial_dimension(space: ViolatorSpace) -> int:
    """Size of the largest basis, by is_basis on all 2^n subsets (assumes the axioms)."""
    n = space.n
    if n > DIMENSION_LIMIT:
        raise ValueError(f"dimension computation refused: n={n} exceeds {DIMENSION_LIMIT}")
    return max(g.bit_count() for g in range(1 << n) if is_basis(space, g))


def _fibers(space: ViolatorSpace, what: str):
    """Every subset grouped by its violator set, each group in ascending order."""
    n = space.n
    if n > DIMENSION_LIMIT:
        raise ValueError(f"{what} refused: n={n} exceeds {DIMENSION_LIMIT}")
    fibers: dict[int, list[int]] = {}
    for g in range(1 << n):
        fibers.setdefault(space.violators(g), []).append(g)
    return fibers.values()


def is_nondegenerate(space: ViolatorSpace) -> bool:
    """True iff every fiber {G : V(G) == v} is an interval of the subset lattice.

    On a space that satisfies the axioms this decides nondegeneracy (every
    G has a unique minimal B with V(B) == V(G)) in O(2^n): the fibers are
    then exactly the intervals [B, H minus V(B)] (Gaertner, Matousek, Ruest
    and Skovron 2008). On other handles the answer means nothing.
    """
    return all(interval_hull(f) is not None for f in _fibers(space, "nondegeneracy check"))


def resolve_dimension(space: ViolatorSpace) -> int:
    """The handle's dim_hint, first filled with the exact dimension when unset.

    The exact d is a valid hint. Its one other reader is find_basis's
    refusal of sets above FIND_BASIS_SIZE_LIMIT without a hint, and a
    filled hint never meets one: combinatorial_dimension refuses
    n > DIMENSION_LIMIT.
    """
    if space.dim_hint is None:
        space.dim_hint = combinatorial_dimension(space)
    return space.dim_hint


def growth_rounds(g: int, step):
    """Lazily yield the rounds of G <- G | step(G) from G = g, numbered from
    1: a round's sample is G before it, its violators step(G)."""
    for i in itertools.count(1):
        v = step(g)
        yield RoundRecord(index=i, sample=g, violators=v)
        g |= v


def composite_rounds(space: ViolatorSpace, subset: int, depth: int | None = None) -> RunTrace:
    """Take `depth` growth rounds G <- G | V(G) starting from `subset`.

    depth defaults to the space dimension. Round i's violator set equals V
    of the round's basis by locality, so no basis computation is needed
    here. Any depth at least the true dimension yields the same final set:
    a round with violators adds an element of every basis of H, and once a
    basis of H is inside the working set its violator set is empty.
    """
    d = resolve_dimension(space) if depth is None else depth
    recs = tuple(itertools.islice(growth_rounds(subset, space.violators), d))
    clean = not recs or recs[-1].violators == 0
    return RunTrace(kind="composite", initial=subset, rounds=recs,
                    terminated_cleanly=clean)


def composite_violators(space: ViolatorSpace, subset: int, depth: int | None = None) -> int:
    """Elements pulled in by `depth` rounds of G <- G | V(G), minus the start."""
    trace = composite_rounds(space, subset, depth)
    g = trace.rounds[-1].working if trace.rounds else subset
    return g & ~subset


def composite_space(space: ViolatorSpace, depth: int | None = None) -> FuncSpace:
    """The space whose violator map is composite_violators of the base space.

    Its combinatorial dimension is at most d*(d+1)/2 for base dimension d,
    which is declared as the hint.
    """
    d = resolve_dimension(space) if depth is None else depth
    hint = d * (d + 1) // 2
    return FuncSpace(space.n, lambda g: composite_violators(space, g, d), dim_hint=hint)

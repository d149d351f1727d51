"""Violator space primitives: axioms, bases, dimension, composite violators.

A violator space on H = {0, ..., n-1} is a map V from subsets of H to
subsets of H satisfying two axioms:

  consistency:  G & V(G) == 0 for every G
  locality:     F subset of G and G & V(F) == 0  implies  V(F) == V(G)

Monotonicity (F subset of E subset of G and V(F) == V(G) implies
V(E) == V(F)) follows from the two axioms and is checked separately as a
sanity property on small ground sets.

Subsets are bitmasks (see subsets.py). All operations here are exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .subsets import (
    expand,
    compress,
    full_mask,
    interval_hull,
    iter_by_size_then_value,
    iter_submasks,
    iter_submasks_ascending,
)

AXIOM_CHECK_LIMIT = 20        # full 2^n enumeration beyond this is refused
MONOTONE_CHECK_LIMIT = 12     # triple enumeration is refused above this
DIMENSION_LIMIT = 16
IS_BASIS_LIMIT = 20
FIND_BASIS_SIZE_LIMIT = 24
MAX_COUNTEREXAMPLES = 16
DEFAULT_BASIS_BUDGET = 1 << 22


class BudgetExceeded(RuntimeError):
    """Raised when a subset enumeration exceeds its evaluation budget."""


class ViolatorSpace:
    """Handle for a violator space: a ground-set size and a violator map.

    dim_hint, when set, is a trusted upper bound on the combinatorial
    dimension; it is used wherever a dimension parameter is required and
    the exact value would be too expensive to compute.

    A handle may also define extreme_candidates(subset): a mask holding
    every element of `subset` whose removal changes V(subset), and maybe
    more. It must hold them exactly, by the handle's own computation of
    V and not by the axioms, since extreme_elements probes nothing else.
    """

    n: int
    dim_hint: int | None = None

    def violators(self, subset: int) -> int:
        raise NotImplementedError

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
        candidates = getattr(self.base, "extreme_candidates", None)
        if candidates is None:
            return subset
        return compress(candidates(expand(subset, self.support)) & self.support, self.support)


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


@dataclass(frozen=True)
class RoundRecord:
    """One round of an iterative solver run (or of the composite iteration)."""

    index: int
    sample: int
    violators: int
    basis: int | None = None
    working: int | None = None        # working set after the round, where applicable
    slips: int | None = None          # multiset slips requested, where applicable
    weight_total: int | None = None   # total weight after doubling, where applicable

    @property
    def controversial(self) -> bool:
        return self.violators != 0


@dataclass(frozen=True)
class RunTrace:
    kind: str                          # "ga" | "sa" | "sa-forever" | "composite"
    initial: int | None
    rounds: tuple[RoundRecord, ...]
    terminated_cleanly: bool
    delegated: bool = False
    final_weights: tuple[int, ...] | None = None


def check_axioms(space: ViolatorSpace) -> AxiomReport:
    """Exhaustively verify consistency and locality; monotonicity on small n.

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
        allowed = full & ~(f | vf)
        s = allowed
        while s:
            g = f | s
            if table[g] != vf:
                local = False
                if len(witnesses) < MAX_COUNTEREXAMPLES:
                    witnesses.append(Counterexample(
                        "locality", f, g,
                        f"V(F) == {vf:#x} but V(G) == {table[g]:#x} with G & V(F) == 0"))
                else:
                    break
            s = (s - 1) & allowed
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

    One leave-one-out oracle call per probed element. Every element is
    probed unless the handle has extreme_candidates (see ViolatorSpace);
    then only the candidates are, and the mask is still the one the full
    scan gives. It is asked right after V(subset), so a handle can answer
    from that evaluation.
    """
    vr = space.violators(subset)
    candidates = getattr(space, "extreme_candidates", None)
    out = 0
    m = subset if candidates is None else subset & candidates(subset)
    while m:
        low = m & -m
        if space.violators(subset ^ low) != vr:
            out |= low
        m ^= low
    return out


def find_basis(space: ViolatorSpace, subset: int, *,
               budget: int = DEFAULT_BASIS_BUDGET) -> int:
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
    disjoint X adds a constant to both keys. The returned mask is
    therefore identical to that of the plain scan over all of `subset`,
    which tests/test_core.py keeps as the oracle for this search.
    """
    g = subset
    size = g.bit_count()
    if size > FIND_BASIS_SIZE_LIMIT and space.dim_hint is None:
        raise ValueError(
            f"refusing to enumerate bases of a {size}-element set without a dimension hint")

    x = extreme_elements(space, g)
    evals = size + 1
    for extra in iter_by_size_then_value(g & ~x):
        evals += 1
        if evals > budget:
            raise BudgetExceeded(f"basis search exceeded {budget} evaluations")
        b = x | extra
        if space.violators(b) & g == 0:
            return b
    raise ValueError(f"no basis below {g:#x}: consistency fails there")


def is_basis(space: ViolatorSpace, subset: int) -> bool:
    """True iff every proper subset leaves a violator inside `subset`."""
    if subset.bit_count() > IS_BASIS_LIMIT:
        raise ValueError("is_basis refused: subset too large to enumerate")
    for f in iter_submasks(subset):
        if f == subset:
            continue
        if subset & space.violators(f) == 0:
            return False
    return True


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


def combinatorial_dimension(space: ViolatorSpace, *, budget: int = DEFAULT_BASIS_BUDGET) -> int:
    """Size of the largest basis, by exhausting all 2^n subsets.

    Works because a largest basis B is its own minimum-cardinality basis:
    no proper subset of B shares its violator set, so find_basis(B) == B.
    """
    n = space.n
    if n > DIMENSION_LIMIT:
        raise ValueError(f"dimension computation refused: n={n} exceeds {DIMENSION_LIMIT}")
    best = 0
    for g in range(1 << n):
        b = find_basis(space, g, budget=budget)
        k = b.bit_count()
        if k > best:
            best = k
    return best


def is_nondegenerate(space: ViolatorSpace) -> bool:
    """True iff every fiber {G : V(G) == v} is an interval of the subset lattice.

    On a space that satisfies the axioms this decides nondegeneracy (every
    G has a unique minimal B with V(B) == V(G)) in O(2^n): the fibers are
    then exactly the intervals [B, H minus V(B)] (Gaertner, Matousek, Ruest
    and Skovron 2008). On other handles the answer means nothing.
    """
    n = space.n
    if n > DIMENSION_LIMIT:
        raise ValueError(f"nondegeneracy check refused: n={n} exceeds {DIMENSION_LIMIT}")
    fibers: dict[int, list[int]] = {}
    for g in range(1 << n):
        fibers.setdefault(space.violators(g), []).append(g)
    return all(interval_hull(f) is not None for f in fibers.values())


def resolve_dimension(space: ViolatorSpace) -> int:
    """dim_hint when declared, else the exact computed dimension (cached)."""
    if space.dim_hint is not None:
        return space.dim_hint
    cached = getattr(space, "_dim_cache", None)
    if cached is None:
        cached = combinatorial_dimension(space)
        try:
            space._dim_cache = cached
        except AttributeError:
            pass
    return cached


def composite_rounds(space: ViolatorSpace, subset: int, depth: int | None = None) -> RunTrace:
    """Iterate G <- G | V(G) for `depth` rounds starting from `subset`.

    depth defaults to the space dimension. Each round record carries the
    pre-round set (sample), the violators added, and the post-round set
    (working). Round i's violator set equals V of the round's basis by
    locality, so no basis computation is needed here. Any depth at least
    the true dimension yields the same final set: a round with violators
    adds an element of every basis of H, and once a basis of H is inside
    the working set its violator set is empty.
    """
    d = resolve_dimension(space) if depth is None else depth
    g = subset
    recs = []
    for i in range(1, d + 1):
        v = space.violators(g)
        recs.append(RoundRecord(index=i, sample=g, violators=v, working=g | v))
        g |= v
    clean = not recs or recs[-1].violators == 0
    return RunTrace(kind="composite", initial=subset, rounds=tuple(recs),
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

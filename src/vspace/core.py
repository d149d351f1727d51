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
integer arithmetic; the table pass holds masks below 2^20 in int64.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .subsets import (
    elements,
    full_mask,
    interval_hull,
    iter_by_size_then_value,
    iter_submasks_ascending,
    mask_of,
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
    """One round of an iterative solver run (or of the composite iteration).
    Its number is its position in RunTrace.rounds, counted from 1."""

    sample: int
    violators: int
    weight_total: int | None = None   # total weight after doubling, where applicable

    @property
    def controversial(self) -> bool:
        return self.violators != 0

    @property
    def working(self) -> int:
        """The working set after a growth round: its sample OR'd with its violators."""
        return self.sample | self.violators


class RunTrace:
    """The rounds of a run, in order, kept as columns.

    Every trace stores the violator mask of each round (`violators`) and
    derives the rest; `rounds` builds the RoundRecords on each access. A
    trace is a GrowthTrace (german, composite iteration, delegated runs)
    or an algorithms.DoublingTrace (weight-doubling runs), which also
    keeps its n (`ground_size`) and its slips per round r (`slips`) once,
    since all its rounds share them; both are None on a GrowthTrace.
    """

    __slots__ = ()

    @property
    def final_weights(self) -> tuple[int, ...] | None:
        """Weights after a weight-doubling run: element e ends at 2^k, k the
        number of rounds whose violators hold e, or at 0 off the support of
        a confined run. None for other runs."""
        return None


@dataclass(frozen=True, slots=True)
class GrowthTrace(RunTrace):
    """Rounds of G <- G | V(G) from G = start: round i's sample is start
    OR'd with the violators of the rounds before it."""

    start: int
    violators: tuple[int, ...]
    terminated_cleanly: bool
    delegated: bool = False
    ground_size = None
    slips = None

    @property
    def rounds(self) -> tuple[RoundRecord, ...]:
        g, recs = self.start, []
        for v in self.violators:
            recs.append(RoundRecord(sample=g, violators=v))
            g |= v
        return tuple(recs)

    @property
    def working(self) -> int:
        """The working set after the last round: start OR'd with every violator mask."""
        g = self.start
        for v in self.violators:
            g |= v
        return g


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
    table = space.violator_table()
    witnesses: list[Counterexample] = []
    consistent = _record(_consistency_failures(table, n), witnesses)
    local = _record(_locality_failures(table, n), witnesses)
    monotone = (None if n > MONOTONE_CHECK_LIMIT
                else _record(_monotonicity_failures(table, n), witnesses))
    return AxiomReport(consistent, local, monotone, tuple(witnesses))


def _record(walk, witnesses: list[Counterexample]) -> bool:
    """Whether `walk` yields no counterexample. Its counterexamples join
    `witnesses` while it holds fewer than MAX_COUNTEREXAMPLES; the walk
    stops when the list is full and it has yielded at least one."""
    room = MAX_COUNTEREXAMPLES - len(witnesses)
    found = list(itertools.islice(walk, max(room, 1)))
    witnesses.extend(found[:room])
    return not found


def _consistency_failures(table: list[int], n: int):
    for g in range(1 << n):
        bad = g & table[g]
        if bad:
            yield Counterexample("consistency", g, g, f"G & V(G) == {bad:#x}")


def _locality_failures(table: list[int], n: int):
    full = full_mask(n)
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
                yield Counterexample(
                    "locality", f, g,
                    f"V(F) == {vf:#x} but V(G) == {table[g]:#x} with G & V(F) == 0")


def _monotonicity_failures(table: list[int], n: int):
    full = full_mask(n)
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
                    yield Counterexample(
                        "monotonicity", f, e,
                        f"V(F) == V(G) == {vf:#x} for G == {g:#x} but V(E) == {table[e]:#x}")
                m = (m - 1) & s


def extreme_elements(space: ViolatorSpace, subset: int) -> int:
    """Elements s of the subset whose removal changes the violator set.

    One leave-one-out oracle call per element of the handle's
    extreme_candidates (see ViolatorSpace), which by default are all of
    them; the mask is the one the full scan gives. The candidates are
    asked right after V(subset), so a handle can answer from that
    evaluation.
    """
    vr = space.violators(subset)
    return _extreme_among(space, subset, vr, subset & space.extreme_candidates(subset))


def _extreme_among(space: ViolatorSpace, subset: int, vr: int, probe: int) -> int:
    """The elements s of `probe` with V(subset minus s) != vr, one call each."""
    return mask_of(i for i in elements(probe) if space.violators(subset ^ 1 << i) != vr)


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

    The same argument finds X cheaply. A probe V(subset\\{s}) is an
    oracle call on a set nearly as large as the subset, and every valid
    set holds X, so only the members of one need a probe. When the
    handle's extreme_candidates narrow the subset to P != subset and P
    itself is valid, the search first shrinks P to a valid S from which
    no one element can be dropped (each member of P is left out in turn
    if the rest stays valid), with oracle calls on subsets of P only, and
    then probes the subset at the members of S alone:
    X = {s in S : V(subset\\{s}) != V(subset)}. By locality that S is a
    basis, so it has no more members than the combinatorial dimension,
    where the full pass probes all of P. Handles that do not narrow get
    the full pass of extreme_elements, call for call.

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

    vg = space.violators(g)
    p = g & space.extreme_candidates(g)
    if p != g and space.violators(p) & g == 0:
        p = _valid_core(space, p, g)
    x = _extreme_among(space, g, vg, p)
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


def _valid_core(space: ViolatorSpace, p: int, g: int) -> int:
    """A subset S of the valid set p with V(S) & g == 0, from which no
    single element can be dropped: each member left out in turn if the
    rest stays valid. One oracle call per element of p, each on a subset
    of p."""
    s = p
    for i in elements(p):
        if space.violators(s ^ 1 << i) & g == 0:
            s ^= 1 << i
    return s


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


def subset_counts(space: ViolatorSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|R|, |V(R)| and |X(R)| of every subset R, as int64 arrays indexed by mask.

    One pass over violator_table(), with no oracle call beyond the
    table's: step i pairs every R holding element i with R minus i, and
    counts i as extreme where their entries differ. That is the test
    extreme_elements makes, so the counts equal its masks' on any
    handle; the pass needs neither the axioms nor nondegeneracy. Callers
    bound n, so every mask fits int64 exactly.
    """
    n = space.n
    table = np.array(space.violator_table(), dtype=np.int64)
    extreme = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        # Row [:, 0] lacks element i and row [:, 1] is the same sets with it.
        pairs = table.reshape(-1, 2, 1 << i)
        extreme.reshape(-1, 2, 1 << i)[:, 1] += pairs[:, 1] != pairs[:, 0]
    size = np.bitwise_count(np.arange(1 << n, dtype=np.int64)).astype(np.int64)
    return size, np.bitwise_count(table).astype(np.int64), extreme


def combinatorial_dimension(space: ViolatorSpace) -> int:
    """Size of the largest basis, assuming the axioms: the largest |R|
    with X(R) == R (is_basis), read off one subset_counts pass."""
    n = space.n
    if n > DIMENSION_LIMIT:
        raise ValueError(f"dimension computation refused: n={n} exceeds {DIMENSION_LIMIT}")
    size, _, extreme = subset_counts(space)
    return int(size[extreme == size].max())


def _fibers(space: ViolatorSpace, what: str):
    """Every subset grouped by its violator set, each group in ascending order."""
    n = space.n
    if n > DIMENSION_LIMIT:
        raise ValueError(f"{what} refused: n={n} exceeds {DIMENSION_LIMIT}")
    fibers: dict[int, list[int]] = {}
    for g, v in enumerate(space.violator_table()):
        fibers.setdefault(v, []).append(g)
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


def composite_rounds(space: ViolatorSpace, subset: int) -> RunTrace:
    """Take d growth rounds G <- G | V(G) starting from `subset`, d the
    space dimension.

    Round i's violator set equals V of the round's basis by locality, so
    no basis computation is needed here. Any number of rounds at least
    the true dimension yields the same final set: a round with violators
    adds an element of every basis of H, and once a basis of H is inside
    the working set its violator set is empty.
    """
    d = resolve_dimension(space)
    g, vs = subset, []
    for _ in range(d):
        vs.append(space.violators(g))
        g |= vs[-1]
    return GrowthTrace(start=subset, violators=tuple(vs), terminated_cleanly=not vs or vs[-1] == 0)


def composite_violators(space: ViolatorSpace, subset: int) -> int:
    """Elements pulled in by d rounds of G <- G | V(G), minus the start."""
    return composite_rounds(space, subset).working & ~subset


def composite_space(space: ViolatorSpace) -> FuncSpace:
    """The space whose violator map is composite_violators of the base space.

    Its combinatorial dimension is at most d*(d+1)/2 for base dimension d,
    which is declared as the hint.
    """
    d = resolve_dimension(space)
    hint = d * (d + 1) // 2
    return FuncSpace(space.n, lambda g: composite_violators(space, g), dim_hint=hint)

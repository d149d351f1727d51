"""Interval partitions of the subset lattice and violation patterns.

An interval [A, B] is the family of sets C with A <= C <= B (as masks:
A & ~C == 0 and C & ~B == 0). A hypercube partition splits all 2^n
subsets into disjoint intervals. The fibers of a nondegenerate violator
map form such a partition, and every such partition arises that way from
exactly one space; roundtrip_check exercises both directions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .core import check_axioms, find_basis, ViolatorSpace
from .instances import ExplicitSpace, _int_field, _read_json, _write_json
from .subsets import full_mask, interval_hull, iter_submasks, iter_submasks_ascending

PARTITION_FORMAT = "hcpart-v1"
ENUMERATION_LIMIT = 4


@dataclass(frozen=True, order=True)
class Interval:
    bottom: int
    top: int

    def __post_init__(self):
        if self.bottom & ~self.top:
            raise ValueError(f"interval bottom {self.bottom:#x} not within top {self.top:#x}")

    def members(self) -> list[int]:
        free = self.top & ~self.bottom
        return [self.bottom | s for s in iter_submasks_ascending(free)]

    @property
    def size(self) -> int:
        return 1 << (self.top & ~self.bottom).bit_count()

    def contains(self, subset: int) -> bool:
        return self.bottom & ~subset == 0 and subset & ~self.top == 0


@dataclass(frozen=True)
class HypercubePartition:
    n: int
    intervals: tuple[Interval, ...]


def _interval_bits(interval: Interval) -> int:
    bits = 0
    for c in interval.members():
        bits |= 1 << c
    return bits


def make_partition(n: int, intervals) -> HypercubePartition:
    """Sort, validate (disjointness and coverage), and wrap intervals."""
    ivs = tuple(sorted(intervals))
    seen = 0
    for iv in ivs:
        if iv.top >= 1 << n:
            raise ValueError(f"interval top {iv.top:#x} exceeds the ground set")
        bits = _interval_bits(iv)
        if seen & bits:
            raise ValueError(f"interval [{iv.bottom:#x}, {iv.top:#x}] overlaps an earlier one")
        seen |= bits
    if seen != (1 << (1 << n)) - 1:
        raise ValueError("intervals do not cover every subset")
    return HypercubePartition(n, ivs)


def partition_to_space(partition: HypercubePartition, certify: bool = True) -> ExplicitSpace:
    """The space with V(G) = complement of the top of G's interval.

    Always satisfies the axioms and is nondegenerate (the bottom of G's
    interval is the one minimal set sharing G's violators); certification
    just re-verifies that.
    """
    n = partition.n
    full = full_mask(n)
    table = [0] * (1 << n)
    for iv in partition.intervals:
        value = full & ~iv.top
        for c in iv.members():
            table[c] = value
    space = ExplicitSpace(n, table)
    if certify:
        space.certify()
    return space


@dataclass(frozen=True)
class ViolationPattern:
    """Fibers of the violator map: classes of subsets with equal V."""

    n: int
    classes: tuple[tuple[int, ...], ...]


def violation_pattern(space: ViolatorSpace) -> ViolationPattern:
    if space.n > 16:
        raise ValueError(f"pattern extraction refused: n={space.n} exceeds 16")
    fibers: dict[int, list[int]] = {}
    for g in range(1 << space.n):
        fibers.setdefault(space.violators(g), []).append(g)
    classes = tuple(sorted(tuple(sorted(c)) for c in fibers.values()))
    return ViolationPattern(space.n, classes)


def pattern_is_hypercube_partition(pattern: ViolationPattern):
    """(flag, witness): whether every class is an interval; witness is the first that is not."""
    witness = next((cls for cls in pattern.classes if interval_hull(cls) is None), None)
    return witness is None, witness


def pattern_to_partition(pattern: ViolationPattern) -> HypercubePartition:
    hulls = [interval_hull(cls) for cls in pattern.classes]
    if None in hulls:
        raise ValueError(f"pattern class {pattern.classes[hulls.index(None)]} is not an interval")
    return make_partition(pattern.n, [Interval(*hull) for hull in hulls])


def enumerate_partitions(n: int):
    """All hypercube partitions, generated in a canonical order.

    Backtracking: the smallest uncovered vertex is the bottom of the next
    interval (any interval containing it would need an even smaller
    uncovered bottom), and its feasible tops are tried in ascending
    numeric order.
    """
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"partition enumeration refused: n={n} exceeds {ENUMERATION_LIMIT}")
    all_verts = (1 << (1 << n)) - 1
    elem_full = full_mask(n)
    out: list[Interval] = []

    @functools.cache
    def bits_of(bottom: int, top: int) -> int:
        return _interval_bits(Interval(bottom, top))

    def rec(covered: int):
        if covered == all_verts:
            yield HypercubePartition(n, tuple(out))
            return
        vid = (~covered & (covered + 1)).bit_length() - 1
        avail = elem_full & ~vid
        for t in iter_submasks_ascending(avail):
            top = vid | t
            bits = bits_of(vid, top)
            if bits & covered:
                continue
            out.append(Interval(vid, top))
            yield from rec(covered | bits)
            out.pop()

    yield from rec(0)


def random_partition(n: int, rng) -> HypercubePartition:
    """Random hypercube partition via randomized greedy interval growth.

    Not uniform over partitions; it only needs to hit a good variety of
    shapes deterministically under a fixed rng.
    """
    all_verts = (1 << (1 << n)) - 1
    covered = 0
    ivs = []
    while covered != all_verts:
        vid = (~covered & (covered + 1)).bit_length() - 1
        top = vid
        order = [e for e in range(n) if not vid >> e & 1]
        rng.shuffle(order)
        for e in order:
            if rng.random() < 0.5:
                continue
            cand = top | 1 << e
            bits = _interval_bits(Interval(vid, cand))
            if not bits & covered:
                top = cand
        covered |= _interval_bits(Interval(vid, top))
        ivs.append(Interval(vid, top))
    return make_partition(n, ivs)


def _nondegenerate_by_definition(space: ViolatorSpace) -> bool:
    """Brute-force O(3^n) reference for core.is_nondegenerate.

    Every G has a unique minimal B with V(B) == V(G) exactly when all sets
    inside G sharing V(G) contain the minimum-cardinality one (downward
    chains between equal-violator sets stay equal-violator by monotonicity).
    """
    table = [space.violators(g) for g in range(1 << space.n)]
    for g in range(1 << space.n):
        vg = table[g]
        b0 = find_basis(space, g)
        for b in iter_submasks(g):
            if table[b] == vg and (b & b0) != b0:
                return False
    return True


def _all_nondegenerate_tables(n: int) -> set[tuple[int, ...]]:
    """Every axiom-passing nondegenerate table, by filtering all consistent ones."""
    choices = [list(iter_submasks_ascending(full_mask(n) & ~g)) for g in range(1 << n)]
    found = set()
    for combo in itertools.product(*choices):
        space = ExplicitSpace(n, list(combo))
        report = check_axioms(space)
        if report.ok and _nondegenerate_by_definition(space):
            found.add(tuple(combo))
    return found


@dataclass(frozen=True)
class RoundtripReport:
    n: int
    partitions: int
    all_axioms: bool
    all_nondegenerate: bool
    all_roundtrip: bool
    injective: bool
    table_bijection: bool | None    # None when the all-tables sweep was skipped
    fixture_failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (self.all_axioms and self.all_nondegenerate and self.all_roundtrip
                and self.injective and self.table_bijection is not False
                and not self.fixture_failures)


def roundtrip_check(n: int, spaces=()) -> RoundtripReport:
    """Both directions of the pattern/partition correspondence.

    Partition side: every enumerated partition maps to a certified
    nondegenerate space whose pattern is the original partition, with no
    two partitions sharing a table. For n <= 3 the space side is swept
    too: the partition images are exactly the nondegenerate axiom-passing
    tables. Optional `spaces` are checked fixture-style: pattern is a
    partition and regenerating from it reproduces the table. Nondegeneracy
    is decided by its definition, so the fiber-interval theorem is tested.
    """
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"roundtrip refused: n={n} exceeds {ENUMERATION_LIMIT}")
    count = 0
    tables = set()
    all_ax = all_nd = all_rt = True
    for part in enumerate_partitions(n):
        count += 1
        space = partition_to_space(part, certify=True)
        if not space.axiom_report.ok:
            all_ax = False
        if not _nondegenerate_by_definition(space):
            all_nd = False
        pat = violation_pattern(space)
        flag, _ = pattern_is_hypercube_partition(pat)
        if not flag or pattern_to_partition(pat) != part:
            all_rt = False
        tables.add(tuple(space.table))
    injective = len(tables) == count

    bijection: bool | None = None
    if n <= 3:
        bijection = tables == _all_nondegenerate_tables(n)

    failures = []
    for i, space in enumerate(spaces):
        label = getattr(space, "name", f"space[{i}]")
        pat = violation_pattern(space)
        flag, witness = pattern_is_hypercube_partition(pat)
        if not flag:
            failures.append(f"{label}: class {witness} is not an interval")
            continue
        rebuilt = partition_to_space(pattern_to_partition(pat), certify=False)
        if rebuilt.table != list(space.violators(g) for g in range(1 << space.n)):
            failures.append(f"{label}: regenerated table differs")
    return RoundtripReport(n, count, all_ax, all_nd, all_rt, injective,
                           bijection, tuple(failures))


def load_partition(path) -> HypercubePartition:
    data = _read_json(path, PARTITION_FORMAT)
    n = _int_field(data, "n", 0, 16, path)
    raw = data.get("intervals")
    if not isinstance(raw, list):
        raise ValueError(f"{path}: field 'intervals' must be a list")
    ivs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: intervals[{i}] must be an object")
        b, t = entry.get("bottom"), entry.get("top")
        for name, v in (("bottom", b), ("top", t)):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0 or v >= 1 << n:
                raise ValueError(f"{path}: intervals[{i}].{name} is not a mask in range")
        ivs.append(Interval(b, t))
    return make_partition(n, ivs)


def partition_payload(partition: HypercubePartition) -> dict:
    return {
        "format": PARTITION_FORMAT,
        "n": partition.n,
        "intervals": [{"bottom": iv.bottom, "top": iv.top} for iv in partition.intervals],
    }


def save_partition(partition: HypercubePartition, path) -> None:
    _write_json(partition_payload(partition), path)

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vspace.algorithms import german_algorithm, swiss_algorithm
from vspace.core import (
    DIMENSION_LIMIT,
    BudgetExceeded,
    FuncSpace,
    ViolatorSpace,
    anti_basis,
    check_axioms,
    combinatorial_dimension,
    composite_rounds,
    composite_space,
    composite_violators,
    extreme_elements,
    find_basis,
    is_basis,
    is_nondegenerate,
    resolve_dimension,
    subset_counts,
)
from vspace.hypercube import enumerate_partitions, partition_to_space, random_partition
from vspace.instances import ExplicitSpace, SebSpace, generate, tabulate
from vspace.subsets import full_mask, iter_submasks

from conftest import (
    ROSTER_KEYS,
    RestrictedSpace,
    compress,
    dimension_by_is_basis,
    eager_growth_replay,
    expand,
    plain_find_basis,
    table_pass_cases,
)


@pytest.mark.parametrize("key", ROSTER_KEYS)
def test_roster_axioms(roster, key):
    space = roster[key]
    assert space.certified
    report = space.axiom_report
    assert report.consistent and report.local
    # all roster spaces are small enough for the monotonicity sweep,
    # and monotonicity follows from the other two axioms
    assert report.monotone is True
    assert report.ok
    assert report.counterexamples == ()


def test_consistency_counterexample():
    report = check_axioms(ExplicitSpace(2, [0, 1, 0, 0]))
    assert not report.consistent
    assert not report.ok
    assert any(c.axiom == "consistency" for c in report.counterexamples)


def test_locality_counterexample():
    # V(empty) = empty but V({0}) = {1}: adding elements outside V(F)
    # changed the violator set
    report = check_axioms(ExplicitSpace(2, [0, 2, 0, 0]))
    assert report.consistent
    assert not report.local
    ce = [c for c in report.counterexamples if c.axiom == "locality"]
    assert ce and ce[0].detail


def test_monotone_skipped_above_limit():
    space = FuncSpace(13, lambda g: 0)
    report = check_axioms(space)
    assert report.consistent and report.local
    assert report.monotone is None
    assert report.ok  # unknown monotonicity does not fail the report


def test_axiom_check_refuses_large_n():
    with pytest.raises(ValueError):
        check_axioms(FuncSpace(21, lambda g: 0))


def test_extreme_elements_frozen_f1(roster):
    f1 = roster["f1"]
    assert extreme_elements(f1, 0b011) == 0b001
    assert extreme_elements(f1, 0b111) == 0b001
    assert extreme_elements(f1, 0) == 0


@pytest.mark.parametrize("key", ["f1", "f2", "seb8", "hpart4", "singleton5"])
def test_violator_extreme_duality(roster, key):
    # s in V(R)  <=>  s in X(R + {s}), for s outside R
    space = roster[key]
    n = space.n
    for r in range(1 << n):
        vr = space.violators(r)
        for s in range(n):
            if r >> s & 1:
                continue
            in_v = vr >> s & 1
            in_x = extreme_elements(space, r | 1 << s) >> s & 1
            assert in_v == in_x, (key, r, s)


@pytest.mark.parametrize("key", ["f1", "f2", "hpart4", "seb8"])
def test_find_basis_prune_matches_plain(roster, key):
    space = roster[key]
    for g in range(1 << space.n):
        assert find_basis(space, g) == plain_find_basis(space, g)


@pytest.mark.parametrize("key", ["f1", "f2", "empty6", "singleton5", "hpart4", "seb8"])
def test_find_basis_is_minimal_basis(roster, key):
    space = roster[key]
    for g in range(1 << space.n):
        b = space.violators(g)
        basis = find_basis(space, g)
        assert basis & g == basis
        assert space.violators(basis) == b
        assert is_basis(space, basis)
        # no strictly smaller subset of g shares the violator set
        for other in iter_submasks(g):
            if other.bit_count() < basis.bit_count():
                assert space.violators(other) != b


def test_find_basis_frozen_values(roster):
    assert find_basis(roster["f1"], 0b111) == 0b001
    assert find_basis(roster["seb8"], 255) == 37
    assert find_basis(roster["empty6"], 63) == 0


def test_find_basis_requires_hint_for_large_sets():
    space = FuncSpace(30, lambda g: 0)
    with pytest.raises(ValueError, match="dimension hint"):
        find_basis(space, full_mask(30))
    space_hinted = FuncSpace(30, lambda g: 0, dim_hint=0)
    assert find_basis(space_hinted, full_mask(30)) == 0


def test_find_basis_budget(roster, monkeypatch):
    monkeypatch.setattr("vspace.core.DEFAULT_BASIS_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        find_basis(roster["f1"], 0b111)


def test_find_basis_no_candidate():
    # consistency fails at {0}, so {0} has no basis below it
    bad = ExplicitSpace(1, [1, 1])
    with pytest.raises(ValueError, match="no basis"):
        find_basis(bad, 1)


class _Narrowing(ViolatorSpace):
    """A table whose extreme_candidates are the exact extreme elements plus
    a seeded random extra, so basis search takes its narrowed path."""

    def __init__(self, table, rng):
        self.n, self.dim_hint = table.n, table.dim_hint
        self._table, self._rng = table, rng

    def violators(self, subset):
        return self._table.violators(subset)

    def extreme_candidates(self, subset):
        return extreme_elements(self._table, subset) | self._rng.getrandbits(self.n)


@pytest.mark.parametrize("key", ["f1", "f2", "empty6", "singleton5", "hpart4", "seb8"])
def test_find_basis_narrowed_matches_plain(roster, key):
    # Valid sets inside the candidates hold every extreme element, so
    # probing only a small one gives the mask of the unpruned scan.
    space = roster[key]
    handle = _Narrowing(space, random.Random(key))
    for g in range(1 << space.n):
        assert find_basis(handle, g) == plain_find_basis(space, g), (key, g)


class _Recording(ViolatorSpace):
    """A table handle, without extreme_candidates, that records its asks."""

    def __init__(self, table):
        self.n, self.dim_hint, self._table = table.n, table.dim_hint, table
        self.asked: list[int] = []

    def violators(self, subset):
        self.asked.append(subset)
        return self._table.violators(subset)


@pytest.mark.parametrize("key", ["f1", "f2", "hpart4", "seb8"])
def test_find_basis_calls_on_tables_unchanged(roster, key):
    # A handle that does not narrow gets the full extreme pass, V(G) and
    # then V(G minus s) for each s, and then the enumeration: candidates
    # holding X, from X itself up, in (size, value) order.
    space = roster[key]
    for g in range(1 << space.n):
        full_pass = _Recording(space)
        x = extreme_elements(full_pass, g)
        handle = _Recording(space)
        find_basis(handle, g)
        k = len(full_pass.asked)
        assert handle.asked[:k] == full_pass.asked
        walk = handle.asked[k:]
        assert walk[0] == x and all(b & x == x for b in walk)
        keys = [(b.bit_count(), b) for b in walk]
        assert keys == sorted(set(keys))


def test_is_basis_rejects_oversized(roster):
    f1 = roster["f1"]
    assert not is_basis(f1, 0b011)
    assert is_basis(f1, 0b001)


def _max_equivalent_superset(space, g):
    best = g
    vg = space.violators(g)
    rest = space.ground & ~g
    s = rest
    while True:
        t = g | s
        if space.violators(t) == vg and t.bit_count() > best.bit_count():
            best = t
        if s == 0:
            break
        s = (s - 1) & rest
    return best


@pytest.mark.parametrize("key", ["f1", "f2", "empty6", "hpart4", "seb8"])
def test_anti_basis_matches_bruteforce(roster, key):
    space = roster[key]
    for g in range(1 << space.n):
        assert anti_basis(space, g) == _max_equivalent_superset(space, g)


DIMENSIONS = {
    "f1": 1, "f2": 1, "seb8": 3, "empty6": 0,
    "singleton5": 5, "hpart4": 3, "interval12": 2,
}
NONDEGENERATE = {
    "f1": True, "f2": False, "seb8": True, "empty6": True,
    "singleton5": True, "hpart4": True, "interval12": True,
}


@pytest.mark.parametrize("key", ROSTER_KEYS)
def test_dimension_frozen(roster, key):
    assert combinatorial_dimension(roster[key]) == DIMENSIONS[key]


@pytest.mark.parametrize("key", ROSTER_KEYS)
def test_nondegeneracy_frozen(roster, key):
    assert is_nondegenerate(roster[key]) == NONDEGENERATE[key]


def test_subset_counts_match_extreme_elements(roster):
    # Every |X(R)| of the table pass against the leave-one-out probes, on
    # handles with and without the axioms, and on a point-set handle whose
    # extreme_candidates narrow the probes.
    for space in table_pass_cases(roster):
        size, violated, extreme = subset_counts(space)
        for g in range(1 << space.n):
            assert size[g] == g.bit_count()
            assert violated[g] == space.violators(g).bit_count()
            assert extreme[g] == extreme_elements(space, g).bit_count(), (space.n, g)


def test_dimension_matches_the_is_basis_loop(roster):
    sixteen = tabulate(SebSpace(generate("uniform-square", {"n": 16, "dim": 2}, 5)), certify=False)
    assert sixteen.n == DIMENSION_LIMIT
    for space in [*table_pass_cases(roster), sixteen]:
        assert combinatorial_dimension(space) == dimension_by_is_basis(space), space.n


def test_dimension_asks_each_subset_once():
    calls = []

    def counted(g):
        calls.append(g)
        return full_mask(8) & ~g

    assert combinatorial_dimension(FuncSpace(8, counted)) == 8
    assert calls == list(range(1 << 8))


def test_dimension_refuses_above_the_limit():
    calls = []
    space = FuncSpace(DIMENSION_LIMIT + 1, calls.append)
    with pytest.raises(ValueError, match=f"^dimension computation refused: "
                                         f"n={DIMENSION_LIMIT + 1} exceeds {DIMENSION_LIMIT}$"):
        combinatorial_dimension(space)
    assert calls == []


def test_f2_has_two_minimal_bases(roster):
    # the degenerate fixture: both singletons are bases of the full set
    f2 = roster["f2"]
    assert f2.violators(0b01) == 0 and f2.violators(0b10) == 0
    assert is_basis(f2, 0b01) and is_basis(f2, 0b10)


def test_restrict_matches_compress(roster):
    base = roster["interval12"]
    support = 0b100000100001  # elements {0, 5, 11}
    sub = RestrictedSpace(base, support)
    assert sub.n == 3
    assert sub.dim_hint == base.dim_hint
    for dense in range(8):
        want = compress(base.violators(expand(dense, support)) & support, support)
        assert sub.violators(dense) == want


def test_restrict_basis_expands(roster):
    base = roster["interval12"]
    support = 0b111111000000
    sub = RestrictedSpace(base, support)
    dense_basis = find_basis(sub, full_mask(6))
    got = expand(dense_basis, support)
    # basis of the restriction: extremes of {6..11} are 6 and 11
    assert got == (1 << 6) | (1 << 11)


def test_resolve_dimension_prefers_hint():
    space = FuncSpace(4, lambda g: 0, dim_hint=7)
    assert resolve_dimension(space) == 7
    plain = FuncSpace(4, lambda g: 0)
    assert resolve_dimension(plain) == 0
    assert plain.dim_hint == 0


class _TableHandle(ViolatorSpace):
    """A handle that defines only what the protocol requires: n and violators."""

    def __init__(self, table):
        self.n = (len(table) - 1).bit_length()
        self._table = table
        self.calls = 0

    def violators(self, subset: int) -> int:
        self.calls += 1
        return self._table[subset]


def test_handle_with_only_n_and_violators(roster):
    # Every optional hook has its default on ViolatorSpace, so the solvers
    # run on such a handle and match the same table as an ExplicitSpace.
    table = roster["interval12"]
    space = _TableHandle(table.table)
    for g in (0, 0b101101, 0b110000000011, space.ground):
        assert extreme_elements(space, g) == extreme_elements(table, g)
        assert find_basis(space, g) == find_basis(table, g)
    assert space.dim_hint is None
    d = resolve_dimension(space)
    assert d == space.dim_hint == dimension_by_sweep(table)
    calls = space.calls
    assert resolve_dimension(space) == d and space.calls == calls
    for seed in range(4):
        for inner in ("bfa", "sa"):
            assert german_algorithm(space, seed, inner) == german_algorithm(table, seed, inner)
        assert swiss_algorithm(space, seed) == swiss_algorithm(table, seed)


def test_composite_frozen_f1(roster):
    f1 = roster["f1"]
    assert composite_violators(f1, 0) == 0b111
    assert composite_violators(f1, 0b001) == 0
    assert composite_violators(f1, 0b100) == 0b011
    trace = composite_rounds(f1, 0b100)
    assert not trace.delegated and trace.ground_size is None and trace.slips is None
    assert len(trace.rounds) == 1  # d = 1
    assert trace.rounds[0].sample == 0b100
    assert trace.rounds[0].working == 0b111


@pytest.mark.parametrize("key", ["f1", "f2", "hpart4", "singleton5", "empty6"])
def test_composite_depth_insensitive(roster, key):
    # d growth rounds, as composite_violators takes, end where d+2 do.
    space = roster[key]
    d = combinatorial_dimension(space)
    for g in range(1 << space.n):
        working = [s | v for s, v, _ in eager_growth_replay(g, space.violators, d + 2, stop=False)]
        after_d = working[d - 1] if d else g
        assert working[-1] == after_d
        assert composite_violators(space, g) == after_d & ~g


@pytest.mark.parametrize("key", ROSTER_KEYS)
def test_composite_trace_columns_rebuild_the_eager_rounds(roster, key):
    # A growth trace keeps its start and its violators; its rounds must be
    # the records the iteration built round by round.
    space = roster[key]
    d = combinatorial_dimension(space)
    for g in range(min(1 << space.n, 512)):
        trace = composite_rounds(space, g)
        want = eager_growth_replay(g, space.violators, d, stop=False)
        assert [(rec.sample, rec.violators, rec.weight_total) for rec in trace.rounds] == want
        assert trace.working == (want[-1][0] | want[-1][1] if want else g)
        assert trace.final_weights is None


def test_composite_space_hint(roster):
    comp = composite_space(roster["seb8"])
    assert comp.dim_hint == 3 * 4 // 2
    tab = tabulate(comp, certify=True)
    assert tab.axiom_report.ok


def test_composite_working_grows(roster):
    space = roster["hpart4"]
    for g in range(16):
        trace = composite_rounds(space, g)
        prev = g
        for rec in trace.rounds:
            assert rec.sample == prev
            assert rec.working == prev | rec.violators
            assert rec.working & prev == prev
            prev = rec.working


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_interval12_duality_random(roster, subset):
    space = roster["interval12"]
    vr = space.violators(subset)
    for s in range(12):
        if subset >> s & 1:
            continue
        assert (vr >> s & 1) == \
            (extreme_elements(space, subset | 1 << s) >> s & 1)


# Brute-force oracles for what the library decides by theorem: locality by
# walking every superset, is_basis by walking every submask, and the
# dimension by a basis search on every subset.

def axioms_by_walks(space):
    """(consistent, local, monotone), walking every pair F subset of G and,
    for monotonicity, every E between them."""
    t = [space.violators(g) for g in range(1 << space.n)]
    pairs = [(f, g) for g in range(len(t)) for f in iter_submasks(g)]
    consistent = all(g & t[g] == 0 for g in range(len(t)))
    local = all(t[g] == t[f] for f, g in pairs if g & t[f] == 0)
    monotone = all(t[f | e] == t[f] for f, g in pairs if t[f] == t[g]
                   for e in iter_submasks(g & ~f))
    return consistent, local, monotone


def is_basis_by_submasks(space, subset):
    return all(subset & space.violators(f) for f in iter_submasks(subset) if f != subset)


def dimension_by_sweep(space):
    return max(plain_find_basis(space, g).bit_count() for g in range(1 << space.n))


def assert_matches_oracles(space):
    """Compare check_axioms, and on passing spaces the dimension, is_basis
    and find_basis, with the walks; returns whether the axioms hold."""
    report = check_axioms(space)
    consistent, local, monotone = axioms_by_walks(space)
    assert (report.consistent, report.local, report.monotone) == (consistent, local, monotone)
    assert report.ok == (consistent and local and monotone)
    for ce in report.counterexamples:
        if ce.axiom == "locality":
            vf = space.violators(ce.f)
            assert ce.f & ~ce.g == 0 and ce.g & vf == 0 and space.violators(ce.g) != vf
    if report.ok:
        assert combinatorial_dimension(space) == dimension_by_sweep(space)
        for b in range(1 << space.n):
            assert is_basis(space, b) == is_basis_by_submasks(space, b), b
            assert find_basis(space, b) == plain_find_basis(space, b), b
    return report.ok


@pytest.mark.parametrize("key", ROSTER_KEYS)
def test_checks_match_oracles_on_roster(roster, key):
    assert assert_matches_oracles(roster[key])


def test_checks_match_oracles_on_every_small_table():
    # n = 2: all 256 tables; n = 3: all 4096 consistent tables (V(G) avoids G).
    # On the 9 and 246 that pass, find_basis matches the plain scan on every subset.
    every2 = [range(4)] * 4
    consistent3 = [list(iter_submasks(full_mask(3) & ~g)) for g in range(8)]
    for n, choices, passing in ((2, every2, 9), (3, consistent3, 246)):
        ok = [assert_matches_oracles(ExplicitSpace(n, list(combo)))
              for combo in itertools.product(*choices)]
        assert sum(ok) == passing


def test_checks_match_oracles_on_partition_images():
    images = [partition_to_space(part, certify=False) for part in enumerate_partitions(3)]
    assert len(images) == 154
    assert all(assert_matches_oracles(space) for space in images)


@st.composite
def small_tables(draw):
    """n = 4 or 5: arbitrary, consistent, partition-image, or a partition
    image with one entry replaced by a consistent value."""
    n = draw(st.integers(4, 5))
    full = full_mask(n)
    kind = draw(st.sampled_from(("arbitrary", "consistent", "partition", "perturbed")))
    if kind in ("partition", "perturbed"):
        part = random_partition(n, random.Random(draw(st.integers(0, 2**32))))
        table = list(partition_to_space(part, certify=False).table)
        if kind == "perturbed":
            g = draw(st.integers(0, full))
            table[g] = draw(st.integers(0, full)) & ~g
        return ExplicitSpace(n, table)
    table = draw(st.lists(st.integers(0, full), min_size=1 << n, max_size=1 << n))
    if kind == "consistent":
        table = [v & ~g for g, v in enumerate(table)]
    return ExplicitSpace(n, table)


@settings(max_examples=150, deadline=None)
@given(small_tables())
def test_checks_match_oracles_on_random_tables(space):
    assert_matches_oracles(space)

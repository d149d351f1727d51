import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vspace.core import (
    BudgetExceeded,
    FuncSpace,
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
    restrict,
)
from vspace.instances import ExplicitSpace, tabulate
from vspace.subsets import compress, expand, full_mask, iter_by_size_then_value, iter_submasks

from conftest import ROSTER_KEYS


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


def plain_find_basis(space, subset):
    """Oracle for find_basis: the unpruned (popcount, value) scan of `subset`."""
    for b in iter_by_size_then_value(subset):
        if space.violators(b) & subset == 0:
            return b
    raise ValueError(f"no basis below {subset:#x}")


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


def test_find_basis_budget(roster):
    with pytest.raises(BudgetExceeded):
        find_basis(roster["f1"], 0b111, budget=1)


def test_find_basis_no_candidate():
    # consistency fails at {0}, so {0} has no basis below it
    bad = ExplicitSpace(1, [1, 1])
    with pytest.raises(ValueError, match="no basis"):
        find_basis(bad, 1)


def test_is_basis_rejects_oversized(roster):
    f1 = roster["f1"]
    assert not is_basis(f1, 0b011)
    assert is_basis(f1, 0b001)
    with pytest.raises(ValueError):
        is_basis(FuncSpace(30, lambda g: 0), full_mask(30))


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


def test_f2_has_two_minimal_bases(roster):
    # the degenerate fixture: both singletons are bases of the full set
    f2 = roster["f2"]
    assert f2.violators(0b01) == 0 and f2.violators(0b10) == 0
    assert is_basis(f2, 0b01) and is_basis(f2, 0b10)


def test_restrict_matches_compress(roster):
    base = roster["interval12"]
    support = 0b100000100001  # elements {0, 5, 11}
    sub = restrict(base, support)
    assert sub.n == 3
    assert sub.dim_hint == base.dim_hint
    for dense in range(8):
        want = compress(base.violators(expand(dense, support)) & support, support)
        assert sub.violators(dense) == want


def test_restrict_basis_expands(roster):
    base = roster["interval12"]
    support = 0b111111000000
    sub = restrict(base, support)
    dense_basis = find_basis(sub, full_mask(6))
    got = expand(dense_basis, support)
    # basis of the restriction: extremes of {6..11} are 6 and 11
    assert got == (1 << 6) | (1 << 11)


def test_resolve_dimension_prefers_hint():
    space = FuncSpace(4, lambda g: 0, dim_hint=7)
    assert resolve_dimension(space) == 7
    plain = FuncSpace(4, lambda g: 0)
    assert resolve_dimension(plain) == 0
    assert plain._dim_cache == 0


def test_composite_frozen_f1(roster):
    f1 = roster["f1"]
    assert composite_violators(f1, 0) == 0b111
    assert composite_violators(f1, 0b001) == 0
    assert composite_violators(f1, 0b100) == 0b011
    trace = composite_rounds(f1, 0b100)
    assert trace.kind == "composite"
    assert len(trace.rounds) == 1  # d = 1
    assert trace.rounds[0].sample == 0b100
    assert trace.rounds[0].working == 0b111


@pytest.mark.parametrize("key", ["f1", "f2", "hpart4", "singleton5", "empty6"])
def test_composite_depth_insensitive(roster, key):
    space = roster[key]
    d = combinatorial_dimension(space)
    for g in range(1 << space.n):
        v = composite_violators(space, g, d)
        assert composite_violators(space, g, d + 2) == v


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

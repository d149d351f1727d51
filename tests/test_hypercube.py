import itertools
import random
from collections import Counter

import pytest

from vspace.core import FuncSpace, check_axioms, is_nondegenerate
from vspace.hypercube import (
    ENUMERATION_LIMIT,
    _nondegenerate_by_definition,
    HypercubePartition,
    Interval,
    enumerate_partitions,
    load_partition,
    make_partition,
    partition_payload,
    partition_to_space,
    pattern_is_hypercube_partition,
    pattern_to_partition,
    random_partition,
    roundtrip_check,
    save_partition,
    violation_pattern,
)
from vspace.instances import ExplicitSpace
from vspace.seeding import spawn
from vspace.subsets import full_mask, iter_submasks_ascending

from conftest import ROSTER_KEYS


def test_interval_members_and_size():
    iv = Interval(0b001, 0b101)
    assert iv.members() == [0b001, 0b101]
    point = Interval(0b11, 0b11)
    assert point.members() == [0b11]


def test_interval_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Interval(0b10, 0b01)


def test_make_partition_validates():
    ok = make_partition(1, [Interval(0, 0), Interval(1, 1)])
    assert ok.intervals == (Interval(0, 0), Interval(1, 1))
    with pytest.raises(ValueError, match="overlaps"):
        make_partition(1, [Interval(0, 1), Interval(1, 1)])
    with pytest.raises(ValueError, match="cover"):
        make_partition(1, [Interval(0, 0)])
    with pytest.raises(ValueError, match="exceeds"):
        make_partition(1, [Interval(0, 3)])


COUNTS = {0: 1, 1: 2, 2: 8, 3: 154, 4: 89512}


@pytest.mark.parametrize("n,count", sorted(COUNTS.items()))
def test_enumeration_counts(n, count):
    assert sum(1 for _ in enumerate_partitions(n)) == count


def test_enumeration_canonical_order():
    got = [[(iv.bottom, iv.top) for iv in p.intervals]
           for p in enumerate_partitions(2)]
    assert got == [
        [(0, 0), (1, 1), (2, 2), (3, 3)],
        [(0, 0), (1, 1), (2, 3)],
        [(0, 0), (1, 3), (2, 2)],
        [(0, 1), (2, 2), (3, 3)],
        [(0, 1), (2, 3)],
        [(0, 2), (1, 1), (3, 3)],
        [(0, 2), (1, 3)],
        [(0, 3)],
    ]


def test_enumeration_refuses_large_n():
    with pytest.raises(ValueError):
        next(enumerate_partitions(ENUMERATION_LIMIT + 1))


def test_random_partition_valid_and_deterministic():
    seen = set()
    for t in range(200):
        part = random_partition(4, random.Random(spawn(11, t)))
        # make_partition re-validates disjointness and coverage
        assert make_partition(4, part.intervals) == part
        seen.add(part)
    assert len(seen) > 50  # the sampler actually varies
    a = random_partition(4, random.Random(spawn(11, 3)))
    b = random_partition(4, random.Random(spawn(11, 3)))
    assert a == b


def test_partition_to_space_certified_nondegenerate():
    for part in enumerate_partitions(2):
        space = partition_to_space(part)
        assert space.axiom_report.ok
        assert is_nondegenerate(space)


@pytest.mark.parametrize("key", ROSTER_KEYS)
def test_fiber_test_matches_definition_on_roster(roster, key):
    space = roster[key]
    assert is_nondegenerate(space) == _nondegenerate_by_definition(space)


def test_fiber_test_matches_definition_on_partition_images():
    for part in enumerate_partitions(3):
        space = partition_to_space(part, certify=False)
        assert is_nondegenerate(space) and _nondegenerate_by_definition(space)


def _axiom_passing_tables(n, choices_per_subset):
    for combo in itertools.product(*choices_per_subset):
        space = ExplicitSpace(n, list(combo))
        if check_axioms(space).ok:
            yield space


def test_fiber_test_matches_definition_on_every_small_table():
    # n = 2: every table; n = 3: every consistent table (V(G) avoids G)
    every2 = [range(4)] * 4
    consistent3 = [list(iter_submasks_ascending(full_mask(3) & ~g)) for g in range(8)]
    for n, choices, expected in ((2, every2, 9), (3, consistent3, 246)):
        count = 0
        for space in _axiom_passing_tables(n, choices):
            count += 1
            assert is_nondegenerate(space) == _nondegenerate_by_definition(space), space.table
        assert count == expected


def _unique_minimal_by_count(table, n):
    """The literal definition: every G has exactly one inclusion-minimal
    b inside G with V(b) == V(G), counted over all such b."""
    for g in range(1 << n):
        family = [b for b in range(g + 1) if b & ~g == 0 and table[b] == table[g]]
        minimal = [b for b in family if not any(c != b and c & ~b == 0 for c in family)]
        if len(minimal) != 1:
            return False
    return True


def test_definition_reference_matches_a_count_of_minimal_sets():
    # Every table for n = 1 and 2, inconsistent ones included, and seeded
    # random n = 3 tables whose entries come from a palette of 1 to 4
    # masks, so that equal entries, and so both answers, occur often.
    tables = [(n, list(t)) for n in (1, 2)
              for t in itertools.product(range(1 << n), repeat=1 << n)]
    assert len(tables) == 260
    rng = random.Random(spawn(27, 0))
    for _ in range(400):
        palette = [rng.randrange(8) for _ in range(rng.randint(1, 4))]
        tables.append((3, [rng.choice(palette) for _ in range(8)]))
    verdicts = Counter()
    for n, table in tables:
        want = _unique_minimal_by_count(table, n)
        assert _nondegenerate_by_definition(ExplicitSpace(n, table)) == want, (n, table)
        verdicts[n, want] += 1
    # One element never has two minimal sets; both answers occur from n = 2.
    assert verdicts == {(1, True): 4, (2, True): 244, (2, False): 12,
                        (3, True): 254, (3, False): 146}


def test_partition_space_table_frozen():
    part = make_partition(2, [Interval(0, 1), Interval(2, 3)])
    space = partition_to_space(part)
    # V(G) = complement of the top of G's interval
    assert space.table == [0b10, 0b10, 0b00, 0b00]


def test_violation_pattern_fibers(roster):
    pat = violation_pattern(roster["f1"])
    assert pat.n == 3
    # classes sorted, each sorted internally; f1 table is [7,0,1,0,3,0,1,0]
    assert pat.classes == ((0,), (1, 3, 5, 7), (2, 6), (4,))


def test_pattern_interval_check(roster):
    ok, witness = pattern_is_hypercube_partition(violation_pattern(roster["f1"]))
    assert ok and witness is None
    ok, witness = pattern_is_hypercube_partition(violation_pattern(roster["f2"]))
    assert not ok
    assert witness == (1, 2, 3)  # AND=0, OR=3: interval would need 4 members


def test_pattern_to_partition_roundtrip(roster):
    space = roster["f1"]
    part = pattern_to_partition(violation_pattern(space))
    rebuilt = partition_to_space(part, certify=False)
    assert rebuilt.table == space.table
    with pytest.raises(ValueError, match="not an interval"):
        pattern_to_partition(violation_pattern(roster["f2"]))


def test_pattern_refuses_large_n():
    with pytest.raises(ValueError):
        violation_pattern(FuncSpace(17, lambda g: 0, dim_hint=0))


def test_roundtrip_check_full():
    report = roundtrip_check(3)
    assert report.partitions == 154
    assert report.all_axioms and report.all_nondegenerate
    assert report.all_roundtrip and report.injective
    assert report.table_bijection is True
    assert report.ok


def test_roundtrip_check_skips_table_sweep_at_4():
    report = roundtrip_check(4)
    assert report.partitions == 89512
    assert report.table_bijection is None
    assert report.ok


def test_roundtrip_refuses_large_n():
    with pytest.raises(ValueError):
        roundtrip_check(5)


def test_partition_save_load_roundtrip(tmp_path):
    part = random_partition(4, random.Random(spawn(11, 7)))
    path = tmp_path / "part.json"
    save_partition(part, path)
    assert load_partition(path) == part
    again = tmp_path / "again.json"
    save_partition(load_partition(path), again)
    assert path.read_bytes() == again.read_bytes()


def test_partition_payload_shape():
    part = make_partition(1, [Interval(0, 1)])
    payload = partition_payload(part)
    assert payload == {
        "format": "hcpart-v1",
        "n": 1,
        "intervals": [{"bottom": 0, "top": 1}],
    }


@pytest.mark.parametrize("mangle,message", [
    (lambda d: d.pop("format"), "format tag"),
    (lambda d: d.update(format="hcpart-v2"), "format tag"),
    (lambda d: d.update(n="two"), "must be an int"),
    (lambda d: d.update(n=-1), "must be an int"),
    (lambda d: d.update(intervals={"bottom": 0}), "must be a list"),
    (lambda d: d.update(intervals=[[0, 1]]), "must be an object"),
    (lambda d: d.update(intervals=[{"bottom": 0, "top": 4}]), "not a mask"),
    (lambda d: d.update(intervals=[{"bottom": 0}]), "not a mask"),
])
def test_load_partition_rejects(tmp_path, mangle, message):
    import json
    payload = partition_payload(make_partition(1, [Interval(0, 1)]))
    mangle(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        load_partition(path)


def test_fixture_hpart4_matches_generator(roster):
    # the checked-in fixture was produced by this exact seeded draw
    part = random_partition(4, random.Random(spawn(20260817, 1)))
    space = partition_to_space(part)
    assert space.table == roster["hpart4"].table

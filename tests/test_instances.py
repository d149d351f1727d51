import itertools
import json
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vspace import instances
from vspace.core import (
    FuncSpace,
    ViolatorSpace,
    check_axioms,
    extreme_elements,
    find_basis,
    restrict,
)
from vspace.instances import (
    DEFAULT_TOLERANCE,
    ExplicitSpace,
    SebSpace,
    generate,
    load_explicit,
    load_seb,
    make_seb,
    miniball,
    save_explicit,
    save_seb,
    seb_violators,
    tabulate,
)
from vspace.subsets import full_mask

import conftest
from conftest import index_order_violators, plain_find_basis

SEB8 = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "seb8.json"


def test_explicit_roundtrip(tmp_path, roster):
    path = tmp_path / "t.json"
    save_explicit(roster["f1"], path)
    again = load_explicit(path)
    assert again.n == 3
    assert again.table == roster["f1"].table
    # resave is byte-identical
    path2 = tmp_path / "t2.json"
    save_explicit(again, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("payload,msg", [
    ({"n": 1, "table": [0, 0]}, "format"),
    ({"format": "violator-table-v1", "table": [0]}, "'n'"),
    ({"format": "violator-table-v1", "n": True, "table": [0, 0]}, "'n'"),
    ({"format": "violator-table-v1", "n": 2, "table": [0, 0]}, "2 entries, want 4"),
    ({"format": "violator-table-v1", "n": 1, "table": [0, 4]}, "not a mask"),
    ({"format": "violator-table-v1", "n": 1, "table": [0, 0.5]}, "not a mask"),
    ({"format": "violator-table-v1", "n": 21,
      "table": [0] * (1 << 21)}, "must be an int in"),
])
def test_load_explicit_rejects(tmp_path, payload, msg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=msg):
        load_explicit(path)


def test_load_explicit_keeps_semantically_bad_tables(tmp_path):
    # structural validation only: a table that breaks consistency loads
    # fine and is caught by check_axioms, not by the loader
    path = tmp_path / "incon.json"
    path.write_text(json.dumps(
        {"format": "violator-table-v1", "n": 1, "table": [0, 1]}))
    space = load_explicit(path)
    assert not space.certified
    assert not check_axioms(space).consistent


def test_seb_roundtrip(tmp_path):
    inst = make_seb([[0.0, 0.0], [1.0, 2.5]], tolerance=1e-9)
    path = tmp_path / "s.json"
    save_seb(inst, path)
    again = load_seb(path)
    assert again.dim == 2
    assert again.tolerance == 1e-9
    assert np.array_equal(again.points, inst.points)
    path2 = tmp_path / "s2.json"
    save_seb(again, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("payload,msg", [
    ({"dim": 2, "points": []}, "format"),
    ({"format": "seb-v1", "points": []}, "'dim'"),
    ({"format": "seb-v1", "dim": 0, "points": []}, "'dim'"),
    ({"format": "seb-v1", "dim": 2, "points": [[0.0]]}, "coordinates"),
    ({"format": "seb-v1", "dim": 1, "points": [["x"]]}, "coordinate"),
    ({"format": "seb-v1", "dim": 1, "points": [[0.0]], "tolerance": -1}, "tolerance"),
])
def test_load_seb_rejects(tmp_path, payload, msg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=msg):
        load_seb(path)


def test_make_seb_validation():
    with pytest.raises(ValueError):
        make_seb([1.0, 2.0])  # not 2-d
    with pytest.raises(ValueError):
        make_seb([[math.inf, 0.0]])
    with pytest.raises(ValueError):
        make_seb([[0.0, 0.0]], dim=3)
    inst = make_seb([[0.0, 1.0]])
    assert not inst.points.flags.writeable


def test_miniball_frozen_triangle():
    inst = make_seb([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)])
    ball = miniball(inst, 0b111)
    assert ball.center == (1.0, 1.0)
    assert math.isclose(ball.radius, math.sqrt(2.0), rel_tol=1e-12)


def test_miniball_frozen_cases():
    # single point
    inst = make_seb([(3.0, 4.0)])
    assert miniball(inst, 1) == (ball := miniball(inst, 1))
    assert ball.center == (3.0, 4.0) and ball.radius == 0.0
    # two points: midpoint
    inst = make_seb([(0.0, 0.0), (4.0, 0.0)])
    ball = miniball(inst, 0b11)
    assert ball.center == (2.0, 0.0) and ball.radius == 2.0
    # collinear three points: fallback through the singular circumsphere
    inst = make_seb([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
    ball = miniball(inst, 0b111)
    assert ball.center == (1.5, 0.0) and math.isclose(ball.radius, 1.5)
    # duplicates
    inst = make_seb([(1.0, 1.0), (1.0, 1.0)])
    ball = miniball(inst, 0b11)
    assert ball.center == (1.0, 1.0) and ball.radius == 0.0
    # cocircular square corners: four boundary candidates, radius sqrt(2)
    inst = make_seb([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)])
    ball = miniball(inst, 0b1111)
    assert ball.center == (1.0, 1.0)
    assert math.isclose(ball.radius, math.sqrt(2.0), rel_tol=1e-12)


def test_miniball_one_dimensional():
    inst = make_seb([[5.0], [1.0], [2.0]], dim=1)
    ball = miniball(inst, 0b111)
    assert ball.center == (3.0,) and ball.radius == 2.0


def test_miniball_empty_raises():
    inst = make_seb([(0.0, 0.0)])
    with pytest.raises(ValueError):
        miniball(inst, 0)


def _oracle_radius(pts, tol):
    """Smallest circumsphere over support subsets that covers everything."""
    n, d = pts.shape
    best = None
    for k in range(1, min(n, d + 1) + 1):
        for idx in itertools.combinations(range(n), k):
            sub = pts[list(idx)]
            p0 = sub[0]
            if k == 1:
                c, r2 = p0, 0.0
            else:
                q = sub[1:] - p0
                gram = 2.0 * (q @ q.T)
                rhs = (q * q).sum(axis=1)
                try:
                    lam = np.linalg.solve(gram, rhs)
                except np.linalg.LinAlgError:
                    continue
                if not np.all(np.isfinite(lam)):
                    continue
                c = p0 + lam @ q
                r2 = float(((c - p0) ** 2).sum())
            d2 = ((pts - c) ** 2).sum(axis=1)
            if np.all(d2 <= r2 * (1.0 + tol) + 1e-300):
                r = math.sqrt(r2)
                if best is None or r < best:
                    best = r
    return best


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=3))
def test_miniball_against_support_oracle(seed, n, dim):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, dim))
    inst = make_seb(pts, dim=dim)
    ball = miniball(inst, full_mask(n))
    want = _oracle_radius(pts, inst.tolerance)
    assert math.isclose(ball.radius, want, rel_tol=1e-9, abs_tol=1e-12)
    d2 = ((pts - np.asarray(ball.center)) ** 2).sum(axis=1)
    assert np.all(d2 <= ball.radius ** 2 * (1.0 + DEFAULT_TOLERANCE) + 1e-300)


def test_seb_violators_semantics():
    inst = make_seb([(0.0, 0.0), (1.0, 0.0), (10.0, 0.0), (0.4, 0.1)])
    # empty set: everything violates
    assert seb_violators(inst, 0) == 0b1111
    # ball of {0,1} covers point 3 but not point 2
    assert seb_violators(inst, 0b0011) == 0b0100
    # members are never violators
    assert seb_violators(inst, 0b1111) == 0
    full_ball = miniball(inst, 0b1111)
    assert math.isclose(full_ball.radius, 5.0)


@pytest.mark.parametrize("limit", [4, 1 << 10])
def test_ball_memo_matches_cold_recursion(monkeypatch, limit):
    # A leave-one-out sweep, as the extreme-element pass makes it, on one
    # warm handle must give bit-identical balls, violator sets and
    # candidates to a fresh handle per call; limit 4 also exercises
    # emptying the memo.
    monkeypatch.setattr(instances, "BALL_CACHE_LIMIT", limit)
    pts = np.random.default_rng(7).random((24, 2))
    inst = make_seb(np.concatenate([pts, pts[:6]]))   # duplicates: degenerate supports
    warm = SebSpace(inst)
    g = full_mask(inst.n) & ~0b101
    for x in [0] + [1 << i for i in range(inst.n) if g >> i & 1]:
        sub = g ^ x
        assert warm._ball(sub, []) == SebSpace(inst)._ball(sub, [])
        fresh = SebSpace(inst)
        assert warm.violators(sub) == fresh.violators(sub)
        assert warm.extreme_candidates(sub) == fresh.extreme_candidates(sub)


def _assert_narrowing_exact(space, subsets):
    # The generic handle has no extreme_candidates, so it probes every
    # element: the narrowed pass must give the very same masks, and the
    # basis search the mask of the unpruned scan.
    plain = FuncSpace(space.n, space.violators, dim_hint=space.dim_hint)
    for g in subsets:
        assert extreme_elements(space, g) == extreme_elements(plain, g), hex(g)
        assert find_basis(space, g) == plain_find_basis(plain, g), hex(g)


def _assert_matches_index_order(space, subsets):
    # Moving points to the front may change a ball's last bits; the
    # points outside it must stay the same.
    for g in subsets:
        assert space.violators(g) == index_order_violators(space, g), hex(g)


def test_extreme_candidates_exact_on_every_subset_of_seb8():
    space = SebSpace(load_seb(SEB8))
    _assert_matches_index_order(space, range(1 << space.n))
    _assert_narrowing_exact(space, range(1 << space.n))


def _clouds(dim: int, seed: int):
    rng = np.random.default_rng(seed)
    u = rng.random((12, dim))
    yield u
    yield np.concatenate([u[:7], u[:7]])                      # every point doubled
    yield rng.integers(0, 3, (14, dim)).astype(float)         # integer grid
    yield generate("sphere-surface", {"n": 12, "dim": dim}, seed).points
    yield np.repeat(u[:3], 4, axis=0)                         # three points repeated
    yield np.repeat(u[:1], 10, axis=0)                        # all points identical


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_extreme_candidates_exact_on_degenerate_clouds(dim):
    rng = random.Random(dim)
    for pts in _clouds(dim, 100 + dim):
        space = SebSpace(make_seb(pts))
        n = space.n
        subsets = [0, full_mask(n)] + [rng.getrandbits(n) for _ in range(40)]
        _assert_matches_index_order(space, subsets)
        _assert_narrowing_exact(space, subsets)
        sub = restrict(space, rng.getrandbits(n) | 1)
        _assert_narrowing_exact(sub, [0, full_mask(sub.n)] + [rng.getrandbits(sub.n) for _ in range(10)])


def _count_calls(monkeypatch, module, name):
    """Wrap module.name, recursive calls included, in a call counter."""
    real, calls = getattr(module, name), [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_move_to_front_visits_fewer_nodes(monkeypatch):
    # The extreme pass of German solves on 400 planar points asks for V of
    # about 47 points: moving each point that sets off a recursion to the
    # front keeps it from setting off the same recursions again.
    nodes = _count_calls(monkeypatch, instances, "_mb")
    oracle_nodes = _count_calls(monkeypatch, conftest, "_index_order_mb")
    space = SebSpace(generate("uniform-square", {"n": 400, "dim": 2}, 3))
    g = sum(1 << i for i in random.Random(1).sample(range(400), 47))
    assert space.violators(g) == index_order_violators(space, g)
    assert 0 < nodes[0] < oracle_nodes[0]


def test_extreme_candidates_small_cases():
    space = SebSpace(make_seb([(0.5, 0.5)]))
    _assert_narrowing_exact(space, [0, 1])
    assert space.extreme_candidates(0) == 0
    assert space.extreme_candidates(1) == 1
    # asking for another subset than the last one evaluated recomputes
    inst = make_seb([(0.0, 0.0), (1.0, 0.0), (10.0, 0.0), (0.4, 0.1)])
    space, fresh = SebSpace(inst), SebSpace(inst)
    assert space.violators(0b1111) == 0
    fresh.violators(0b1011)
    assert space.extreme_candidates(0b1011) == fresh.extreme_candidates(0b1011)
    assert extreme_elements(space, 0b1011) == 0b0011
    # a restriction of a handle without the method probes every element
    table = restrict(FuncSpace(3, lambda g: 0), 0b101)
    assert table.extreme_candidates(0b11) == 0b11


def test_members_outside_the_final_ball_are_candidates(monkeypatch):
    # A member left outside the final ball (a return at full boundary does
    # not recheck earlier points) changes V when removed, so it must be
    # probed even if it never set off a recursion.
    monkeypatch.setattr(SebSpace, "_ball", lambda self, subset, hits: ((0.0, 0.0), 1.0))
    space = SebSpace(make_seb([(0.0, 0.0), (5.0, 0.0), (9.0, 0.0)]))
    assert space.violators(0b011) == 0b100
    assert space.extreme_candidates(0b011) == 0b010


class _RecordingHandle:
    """Forwarding proxy that records every mask violators() is asked for,
    like a tracer's."""

    def __init__(self, inner):
        self._inner = inner
        self.asked: list[int] = []

    def violators(self, subset: int) -> int:
        self.asked.append(subset)
        return self._inner.violators(subset)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def test_extreme_pass_evaluates_only_through_the_handle(monkeypatch):
    # Every SEB evaluation of the pass must be a violators() call the proxy
    # sees: the candidates come from the evaluation of V(G) itself, and no
    # leave-one-out probe goes around the handle.
    evaluated = []
    real = SebSpace._ball

    def counting(self, subset, hits):
        evaluated.append(subset)
        return real(self, subset, hits)

    monkeypatch.setattr(SebSpace, "_ball", counting)
    space = SebSpace(generate("uniform-square", {"n": 60, "dim": 2}, 5))
    g = full_mask(60) & ~0b1001
    for handle in (space, restrict(space, full_mask(60))):
        proxy = _RecordingHandle(handle)
        evaluated.clear()
        x = extreme_elements(proxy, g)
        assert len(evaluated) == len(proxy.asked)
        assert proxy.asked[0] == g
        assert len(proxy.asked) < 1 + g.bit_count()     # the pass was narrowed
        assert x == extreme_elements(FuncSpace(60, space.violators), g)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_find_basis_asks_nothing_locality_decided(dim):
    # Every point doubled: no copy is extreme, so the enumeration walks
    # pairs and triples. No candidate it asks for may be one whose V
    # locality already gave: b minus {e} asked, with e outside its V.
    doubled = list(_clouds(dim, 100 + dim))[1]
    space = SebSpace(make_seb(doubled))
    n = space.n
    rng = random.Random(dim)
    for g in [full_mask(n)] + [rng.getrandbits(n) for _ in range(20)]:
        proxy = _RecordingHandle(space)
        x = extreme_elements(proxy, g)
        pass_asks = len(proxy.asked)
        basis = find_basis(proxy, g)
        assert basis == plain_find_basis(space, g), hex(g)
        candidates = proxy.asked[2 * pass_asks:]    # after find_basis's own pass
        v = {b: space.violators(b) for b in candidates}
        for b in candidates:
            m = b & ~x
            while m:
                e = m & -m
                m ^= e
                assert b ^ e not in v or v[b ^ e] & e, (hex(g), hex(b), e)


def _loop_table(space):
    # The table as ViolatorSpace's default builds it, on a fresh handle.
    fresh = SebSpace(space.instance)
    return [fresh.violators(g) for g in range(1 << fresh.n)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_violator_table_equals_the_loop_on_degenerate_clouds(dim):
    for pts in _clouds(dim, 100 + dim):
        space = SebSpace(make_seb(pts[:12]))
        assert space.violator_table() == _loop_table(space)


@pytest.mark.parametrize("points", [load_seb(SEB8).points, np.zeros((0, 2)), [(0.3, 0.7)]],
                         ids=["seb8", "n0", "n1"])
def test_violator_table_equals_the_loop_on_small_sets(points):
    space = SebSpace(make_seb(points, dim=2))
    assert space.violator_table() == _loop_table(space)


def test_violator_table_survives_memo_resets(monkeypatch):
    monkeypatch.setattr(instances, "BALL_CACHE_LIMIT", 4)
    pts = np.random.default_rng(11).random((9, 3))
    space = SebSpace(make_seb(np.concatenate([pts, pts[:3]])))
    memo = space._balls
    assert space.violator_table() == _loop_table(space)
    assert space._balls is not memo


def test_violator_table_makes_fewer_recursions_than_the_loop(monkeypatch):
    nodes = _count_calls(monkeypatch, instances, "_mb")
    space = SebSpace(generate("uniform-square", {"n": 12, "dim": 2}, 4))
    space.violator_table()
    walk = nodes[0]
    nodes[0] = 0
    ViolatorSpace.violator_table(SebSpace(space.instance))
    assert 0 < walk < nodes[0]


def test_tabulate_leaves_the_handle_as_a_fresh_one():
    inst = make_seb(np.random.default_rng(12).random((10, 2)))
    space = SebSpace(inst)
    space.violators(0b1011)
    tabulate(space)
    rng = random.Random(12)
    for g in [0b1011] + [rng.getrandbits(10) for _ in range(40)]:
        # candidates first: they must not come from a stale last evaluation
        assert space.extreme_candidates(g) == SebSpace(inst).extreme_candidates(g), hex(g)
        assert space.violators(g) == SebSpace(inst).violators(g), hex(g)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("points", [
    [[1e155, 0], [-1e155, 0], [0, 1e155], [3e154, 2e154]],
    [[1e308, 0], [-1e308, 0], [0, 1e308], [-1e308, -1e308]],
])
def test_overflowing_points_raise_one_value_error(points):
    space = SebSpace(make_seb(points))
    with pytest.raises(ValueError, match="overflows the float range") as walk:
        space.violator_table()
    with pytest.raises(ValueError) as loop:
        ViolatorSpace.violator_table(space)
    assert str(walk.value) == str(loop.value)


def test_sebspace_hint_and_tabulate():
    inst = make_seb([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (0.5, 0.5)])
    space = SebSpace(inst)
    assert space.dim_hint == 3
    tab = tabulate(space)
    assert tab.certified and tab.axiom_report.ok
    assert tab.dim_hint == 3
    assert tab.table[0] == 0b1111


def test_tabulate_refuses_large():
    with pytest.raises(ValueError):
        tabulate(SebSpace(make_seb(np.zeros((17, 2)))))


def test_generate_uniform_square_deterministic():
    a = generate("uniform-square", {"n": 5, "dim": 3}, 99)
    b = generate("uniform-square", {"n": 5, "dim": 3}, 99)
    c = generate("uniform-square", {"n": 5, "dim": 3}, 100)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.dim == 3 and a.n == 5
    assert np.all((a.points >= 0) & (a.points <= 1))


def test_generate_sphere_surface():
    inst = generate("sphere-surface", {"n": 12, "dim": 3}, 5)
    norms = np.linalg.norm(inst.points, axis=1)
    assert np.allclose(norms, 1.0)


def test_generate_unknown_kind():
    with pytest.raises(ValueError):
        generate("mystery", {}, 0)


def test_explicit_space_certify_flow():
    space = ExplicitSpace(2, [0, 0, 0, 0])
    assert not space.certified
    report = space.certify()
    assert space.certified and report.ok and space.axiom_report is report

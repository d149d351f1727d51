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
from vspace.core import FuncSpace, check_axioms, extreme_elements, find_basis, restrict
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
    # warm instance must give bit-identical balls and violator sets to a
    # fresh instance per call; limit 4 also exercises emptying the memo.
    monkeypatch.setattr(instances, "BALL_CACHE_LIMIT", limit)
    pts = np.random.default_rng(7).random((24, 2))
    pts = np.concatenate([pts, pts[:6]])       # duplicates: degenerate supports
    warm = make_seb(pts)
    g = full_mask(len(pts)) & ~0b101
    for x in [0] + [1 << i for i in range(len(pts)) if g >> i & 1]:
        sub = g ^ x
        assert miniball(warm, sub) == miniball(make_seb(pts), sub)
        assert seb_violators(warm, sub) == seb_violators(make_seb(pts), sub)


def _assert_narrowing_exact(space, subsets):
    # The generic handle has no extreme_candidates, so it probes every
    # element: the narrowed pass must give the very same masks.
    plain = FuncSpace(space.n, space.violators, dim_hint=space.dim_hint)
    for g in subsets:
        assert extreme_elements(space, g) == extreme_elements(plain, g), hex(g)
        assert find_basis(space, g) == find_basis(plain, g), hex(g)


def test_extreme_candidates_exact_on_every_subset_of_seb8():
    space = SebSpace(load_seb(SEB8))
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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_extreme_candidates_exact_on_degenerate_clouds(dim):
    rng = random.Random(dim)
    for pts in _clouds(dim, 100 + dim):
        space = SebSpace(make_seb(pts))
        n = space.n
        _assert_narrowing_exact(space, [0, full_mask(n)] + [rng.getrandbits(n) for _ in range(40)])
        sub = restrict(space, rng.getrandbits(n) | 1)
        _assert_narrowing_exact(sub, [0, full_mask(sub.n)] + [rng.getrandbits(sub.n) for _ in range(10)])


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
    monkeypatch.setattr(instances, "_ball", lambda instance, subset, hits: ((0.0, 0.0), 1.0))
    space = SebSpace(make_seb([(0.0, 0.0), (5.0, 0.0), (9.0, 0.0)]))
    assert space.violators(0b011) == 0b100
    assert space.extreme_candidates(0b011) == 0b010


class _CountingHandle:
    """Forwarding proxy that counts violators() calls, like a tracer's."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def violators(self, subset: int) -> int:
        self.calls += 1
        return self._inner.violators(subset)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def test_extreme_pass_evaluates_only_through_the_handle(monkeypatch):
    # Every SEB evaluation of the pass must be a violators() call the proxy
    # sees: the candidates come from the evaluation of V(G) itself, and no
    # leave-one-out probe goes around the handle.
    evaluated = []
    real = instances._evaluate

    def counting(instance, subset):
        evaluated.append(subset)
        return real(instance, subset)

    monkeypatch.setattr(instances, "_evaluate", counting)
    space = SebSpace(generate("uniform-square", {"n": 60, "dim": 2}, 5))
    g = full_mask(60) & ~0b1001
    for handle in (space, restrict(space, full_mask(60))):
        proxy = _CountingHandle(handle)
        evaluated.clear()
        x = extreme_elements(proxy, g)
        assert len(evaluated) == proxy.calls
        assert evaluated[0] == g
        assert proxy.calls < 1 + g.bit_count()      # the pass was narrowed
        assert x == extreme_elements(FuncSpace(60, space.violators), g)


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


def test_generate_random_nondegenerate_table():
    from vspace.core import is_nondegenerate
    space = generate("explicit-random-nondegenerate", {"n": 4}, 17)
    assert isinstance(space, ExplicitSpace)
    assert space.certified and space.axiom_report.ok
    assert is_nondegenerate(space)


def test_generate_degenerate_fixture():
    space = generate("degenerate-fixture", {}, 0)
    assert space.table == [3, 0, 0, 0]


def test_generate_unknown_kind():
    with pytest.raises(ValueError):
        generate("mystery", {}, 0)


def test_explicit_space_certify_flow():
    space = ExplicitSpace(2, [0, 0, 0, 0])
    assert not space.certified
    report = space.certify()
    assert space.certified and report.ok and space.axiom_report is report

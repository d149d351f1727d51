import functools
import itertools
import json
import math
import pathlib
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vspace import algorithms, core, instances
from vspace.core import (
    FuncSpace,
    ViolatorSpace,
    check_axioms,
    extreme_elements,
    find_basis,
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
    tabulate,
)
from vspace.subsets import elements, full_mask, mask_of

import conftest
from conftest import (
    RecordingHandle,
    RestrictedSpace,
    _generic_mb,
    full_gram_circumsphere,
    full_gram_solve_linear,
    generic_ball,
    generic_circumsphere,
    index_order_violators,
    none_state_ball,
    plain_find_basis,
    row_sum_outside,
)

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


@pytest.mark.parametrize("tolerance", [-2.0, math.nan, math.inf])
def test_make_seb_and_generate_refuse_a_bad_tolerance(tolerance):
    # Both share load_seb's check. Unchecked, tolerance -2.0 or NaN gave a
    # handle that answers V = 0 for G = 1, 3 and 7 and breaks the axioms.
    pts = np.random.default_rng(1).random((6, 2))
    with pytest.raises(ValueError, match="tolerance must be a finite non-negative number"):
        make_seb(pts, tolerance=tolerance)
    for kind in ("uniform-square", "sphere-surface"):
        with pytest.raises(ValueError, match="tolerance"):
            generate(kind, {"n": 6, "dim": 2, "tolerance": tolerance}, 1)
    assert make_seb(pts, tolerance=0).tolerance == 0


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


def test_seb_space_violators_semantics():
    inst = make_seb([(0.0, 0.0), (1.0, 0.0), (10.0, 0.0), (0.4, 0.1)])
    violators = SebSpace(inst).violators
    # empty set: everything violates
    assert violators(0) == 0b1111
    # ball of {0,1} covers point 3 but not point 2
    assert violators(0b0011) == 0b0100
    # members are never violators
    assert violators(0b1111) == 0
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


def _memo_clouds():
    rng = np.random.default_rng(23)
    planar = rng.random((20, 2))
    return {"planar": planar, "3d": rng.random((16, 3)),
            "dupes": np.concatenate([planar[:10], planar[:10]])}


def _memo_sequence(n: int, rng: random.Random) -> list[int]:
    """Masks as basis search asks them, and more: the empty set, every
    singleton (its ball has one point), G twice in a row, the leave-one-out
    probes of G (most end on a ball met before), G again after them, then G
    plus each point outside it."""
    seq = [0] + [1 << i for i in range(n)]
    for _ in range(3):
        g = rng.getrandbits(n) | 1
        seq += [g, g] + [g & ~(1 << i) for i in range(n) if g >> i & 1] + [g]
        seq += [g | 1 << i for i in range(n) if not g >> i & 1]
    return seq


@pytest.mark.parametrize("cloud", ["planar", "3d", "dupes"])
@pytest.mark.parametrize("limit", [4, 1 << 10])
def test_warm_handle_answers_as_fresh_handles(monkeypatch, limit, cloud):
    # The mask memo and the repeated-call shortcut must not change an
    # answer: one warm handle gives, call by call, what a fresh handle per
    # call gives. Every other step asks for the candidates first, so a
    # stale last call would show; limit 4 empties both memos on the way.
    monkeypatch.setattr(instances, "BALL_CACHE_LIMIT", limit)
    inst = make_seb(_memo_clouds()[cloud])
    warm = SebSpace(inst)
    for step, g in enumerate(_memo_sequence(inst.n, random.Random(limit))):
        if step % 2:
            assert warm.extreme_candidates(g) == SebSpace(inst).extreme_candidates(g), hex(g)
        assert warm.violators(g) == SebSpace(inst).violators(g), hex(g)
        assert warm.extreme_candidates(g) == SebSpace(inst).extreme_candidates(g), hex(g)


def test_a_repeated_violators_call_makes_no_recursion(monkeypatch):
    nodes = _count_nodes(monkeypatch)
    space = SebSpace(generate("uniform-square", {"n": 400, "dim": 2}, 3))
    g = sum(1 << i for i in random.Random(3).sample(range(400), 50))
    v = space.violators(g)
    x = space.extreme_candidates(g)
    assert nodes[0] > 0
    nodes[0] = 0
    assert space.violators(g) == v
    assert space.extreme_candidates(g) == x
    assert space.violators(g) == v
    assert nodes[0] == 0


def test_a_ball_met_before_is_scanned_once(monkeypatch):
    # Most leave-one-out probes of a 50-point G end on G's own ball or on
    # another ball met before: each distinct ball is scanned once.
    real, scans = np.packbits, [0]

    def counting(*args, **kwargs):
        scans[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "packbits", counting)
    space = SebSpace(generate("uniform-square", {"n": 200, "dim": 2}, 31))
    g = sum(1 << i for i in random.Random(31).sample(range(200), 50))
    balls = set()
    for s in [0] + [1 << i for i in range(200) if g >> i & 1]:
        space.violators(g ^ s)
        balls.add(space._ball(g ^ s, []))
    assert scans[0] == len(balls) == len(space._masks) < 10


def test_mask_memo_is_emptied_with_the_ball_memo(monkeypatch):
    monkeypatch.setattr(instances, "BALL_CACHE_LIMIT", 4)
    space = SebSpace(make_seb(_memo_clouds()["dupes"]))
    resets = 0
    for g in _memo_sequence(space.n, random.Random(5)):
        balls, masks = space._balls, space._masks
        space.violators(g)
        assert (space._balls is balls) == (space._masks is masks), hex(g)
        assert set(space._masks) <= set(space._balls.values()), hex(g)
        resets += space._balls is not balls
    assert resets > 0
    small = SebSpace(make_seb(_memo_clouds()["planar"][:10]))
    masks = small._masks
    small.violator_table()
    assert small._masks is not masks
    # Without a reset the table's walk, singletons and (k,) starts
    # included, keeps only masks of balls the memo holds.
    monkeypatch.setattr(instances, "BALL_CACHE_LIMIT", 1 << 10)
    small = SebSpace(small.instance)
    small.violator_table()
    assert set(small._masks) <= set(small._balls.values())


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
        sub = RestrictedSpace(space, rng.getrandbits(n) | 1)
        _assert_narrowing_exact(sub, [0, full_mask(sub.n)] + [rng.getrandbits(sub.n) for _ in range(10)])


OVERFLOW_ERROR = "points too far apart: a smallest enclosing ball overflows the float range"


def _assert_kernel_bit_for_bit(space, subsets) -> int:
    # Wherever the None-state recursion finds a ball, the kernel must make
    # its float operations: the same center and r^2 to the last bit, and
    # the same hits in order. Where it meets a boundary with no ball, the
    # kernel must raise the overflow error. In the plane the generic loop,
    # which every other dimension runs, must do the same.
    # Returns how many of the balls overflow the float range.
    kernels = [space._ball] + [functools.partial(generic_ball, space)] * (space.instance.dim == 2)
    overflowed = 0
    for g in subsets:
        want, want_hits = none_state_ball(space, g)
        for kernel in kernels:
            hits = []
            if want is None:
                with pytest.raises(ValueError) as exc:
                    kernel(g, hits)
                assert str(exc.value) == OVERFLOW_ERROR, hex(g)
            else:
                assert _hex(kernel(g, hits)) == _hex(want), hex(g)
                assert hits == want_hits, hex(g)
        overflowed += want is None
    return overflowed


def test_planar_kernel_bit_for_bit_on_every_subset_of_degenerate_clouds():
    for pts in _clouds(2, 102):
        space = SebSpace(make_seb(pts))
        assert _assert_kernel_bit_for_bit(space, range(1, 1 << space.n)) == 0


@pytest.mark.parametrize("dim", [1, 3])
def test_kernel_bit_for_bit_on_every_subset_of_degenerate_clouds(dim):
    for pts in _clouds(dim, 100 + dim):
        space = SebSpace(make_seb(pts))
        assert _assert_kernel_bit_for_bit(space, range(1, 1 << space.n)) == 0


def test_planar_kernel_bit_for_bit_on_a_large_cloud():
    space = SebSpace(generate("uniform-square", {"n": 400, "dim": 2}, 17))
    rng = random.Random(17)
    sizes = [16] * 40 + [50] * 40 + [200] * 10
    subsets = [sum(1 << i for i in rng.sample(range(400), k)) for k in sizes]
    _assert_kernel_bit_for_bit(space, subsets + [full_mask(400)])


def test_planar_kernel_bit_for_bit_near_the_overflow_edge():
    # Coordinates in [-1e154, 1e154]: some squared distances overflow, so
    # the recursions of 950 of the 1023 subsets meet a boundary with no
    # ball, and most others come close. The None state, which recurses on
    # from such a boundary, still ends on a ball for 357 of the 950, and
    # 280 of those leave a point of the subset outside.
    pts = (np.random.default_rng(19).random((10, 2)) * 2.0 - 1.0) * 1e154
    space = SebSpace(make_seb(pts))
    assert _assert_kernel_bit_for_bit(space, range(1, 1 << space.n)) == 950


def test_planar_kernel_bit_for_bit_near_the_underflow_edge():
    # Coordinates about 1e-155: squared distances are subnormal or round
    # to zero, so the test must add nothing to r^2 * (1 + tol).
    pts = np.random.default_rng(29).random((10, 2)) * 1e-155
    space = SebSpace(make_seb(np.concatenate([pts, pts[:2]])))
    assert _assert_kernel_bit_for_bit(space, range(1, 1 << space.n)) == 0


def _run_kernel(mb, space, order, end, boundary, balls):
    """(ball, hits, final order) of one run of `mb` on a copy of `order`."""
    inst, order, hits = space.instance, list(order), []
    ball = mb(space._points, order, end, boundary, inst.tolerance, inst.dim, balls, hits)
    return ball, hits, order


def test_planar_scans_are_the_generic_recursion_at_tolerance_0():
    # At tolerance 0 a copy of a point can test outside a ball by an ulp,
    # so the doubled and the grid cloud reach every branch of the scans:
    # hits at position 0, boundaries completed from the memo, and the
    # fallback search of _ball_with_boundary. On every subset the kernel
    # must give the generic recursion's ball (by float.hex), hits and final
    # order. So must every (k,) start that violator_table makes: G minus k
    # ends with some order and ball, and where k lies outside that ball, k
    # is appended and scanned from with k pinned. Each side keeps one warm
    # memo per cloud, so later subsets take their balls from it.
    starts = 0
    for pts in list(_clouds(2, 102))[1:3]:
        space = SebSpace(make_seb(pts, tolerance=0.0))
        memo, generic_memo, ends = {}, {}, {}
        for g in range(1 << space.n):
            order = elements(g)
            want = _run_kernel(_generic_mb, space, order, len(order), (), generic_memo)
            got = _run_kernel(instances._mb, space, order, len(order), (), memo)
            assert (_hex(got[0]), got[1:]) == (_hex(want[0]), want[1:]), hex(g)
            ends[g] = want[0], want[2]
            if not g:
                continue
            k = g.bit_length() - 1
            (center, r2), prefix = ends[g ^ 1 << k]
            if instances._dist2(space._points[k], center) <= r2:
                continue
            grown = prefix + [k]
            want = _run_kernel(_generic_mb, space, grown, len(prefix), (k,), generic_memo)
            got = _run_kernel(instances._mb, space, grown, len(prefix), (k,), memo)
            assert (_hex(got[0]), got[1:]) == (_hex(want[0]), want[1:]), hex(g)
            starts += 1
    assert starts > 6_000


EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-155, 1.0, -0.5, 1e154, -1e154, 1e308, -1e308)


def _boundary_sets(dim: int, k: int, rng: np.random.Generator):
    """k-point boundary sets in R^dim: random, with duplicates, on a line,
    in a plane, and with coordinates drawn from EXTREMES."""
    for _ in range(150):
        yield rng.random((k, dim))
        yield rng.standard_normal((k, dim)) * 10.0 ** rng.integers(-8, 9)
        yield rng.random((k, dim))[rng.integers(0, max(1, k - 1), k)]
        base, u, v = rng.random((3, dim))
        s, t = rng.integers(-3, 4, (2, k))
        yield base + s[:, None] * u
        yield base + s[:, None] * u + t[:, None] * v
        yield rng.choice(EXTREMES, (k, dim))
        yield np.where(rng.random((k, dim)) < 0.5, rng.choice(EXTREMES, (k, dim)),
                       rng.random((k, dim)))


def _hex(value):
    # float.hex of every float in a nested result; None stays None.
    if isinstance(value, float):
        return value.hex()
    if value is None:
        return None
    return [_hex(v) for v in value]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_circumsphere_matches_the_full_gram_bit_for_bit(dim):
    # Computing each Gram entry once, mirroring the off-diagonal ones, must
    # give the full matrix's center and r^2 to the last bit, for every
    # boundary size the recursion asks for.
    rng = np.random.default_rng(300 + dim)
    solved = 0
    for k in range(1, dim + 2):
        for pts in _boundary_sets(dim, k, rng):
            bpts = [tuple(row) for row in pts.tolist()]
            want = full_gram_circumsphere(bpts)
            assert _hex(instances._circumsphere(bpts)) == _hex(want), bpts
            solved += want is not None
    assert solved > 0


CIRCLE_SCALES = (1e-300, 1e-160, 1.0, 1e150, 1e300, 1e308)


def _planar_boundaries(k: int, rng: np.random.Generator):
    """k-point planar boundaries: random, scaled by magnitudes from 1e-300
    to 1e308 (where the generic path overflows to None), with duplicates,
    on a line, from +-0.0 and +-1, and from EXTREMES."""
    for _ in range(1500):
        yield rng.random((k, 2))
        yield (rng.random((k, 2)) * 2.0 - 1.0) * rng.choice(CIRCLE_SCALES)
        yield rng.random((k, 2))[rng.integers(0, k - 1, k)]
        base, u = rng.random((2, 2))
        yield base + rng.integers(-3, 4, k)[:, None] * u
        yield rng.choice((0.0, -0.0, 1.0, -1.0), (k, 2))
        yield rng.choice(EXTREMES, (k, 2))


def test_planar_circle_matches_the_generic_path_bit_for_bit():
    # The unrolled planar circumsphere must make the generic path's float
    # operations: the same center and r^2 by repr (which tells -0.0 from
    # 0.0), and None in the same cases, both against the generic body and
    # against the full Gram matrix.
    rng = np.random.default_rng(350)
    solved = none = 0
    for k in (2, 3):
        for pts in _planar_boundaries(k, rng):
            bpts = [tuple(row) for row in pts.tolist()]
            want = repr(generic_circumsphere(bpts))
            assert repr(instances._circle(bpts)) == want, bpts
            assert repr(instances._circumsphere(bpts)) == want, bpts
            assert repr(full_gram_circumsphere(bpts)) == want, bpts
            solved += want != "None"
            none += want == "None"
    assert solved > 7_000 and none > 7_000


def test_seb_space_matches_the_generic_circumsphere_on_degenerate_clouds(monkeypatch):
    # On every subset of the doubled and the grid planar cloud, violators,
    # extreme_candidates and violator_table must equal what the generic
    # move-to-front loop gives when every boundary goes through the
    # generic circumsphere instead of the unrolled one.
    for pts in list(_clouds(2, 102))[1:3]:
        space = SebSpace(make_seb(pts))
        subsets = range(1 << space.n)
        got = [(space.violators(g), space.extreme_candidates(g)) for g in subsets]
        table = space.violator_table()
        with monkeypatch.context() as patch:
            patch.setattr(instances, "_circumsphere", generic_circumsphere)
            for g in subsets:
                hits = []
                outside = row_sum_outside(space, generic_ball(space, g, hits))
                assert got[g] == (outside & ~g, outside & g | mask_of(hits)), hex(g)
                assert table[g] == outside & ~g, hex(g)


def test_solve_linear_matches_the_generator_scale():
    rng = np.random.default_rng(31)
    values = np.array(EXTREMES + (math.inf, -math.inf, math.nan, 2.0, 3.0))
    for k in range(1, 5):
        for _ in range(500):
            a = rng.choice(values, (k, k)).tolist()
            b = rng.choice(values, k).tolist()
            try:
                want = full_gram_solve_linear(a, b)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    instances._solve_linear(a, b)
                continue
            assert _hex(instances._solve_linear(a, b)) == _hex(want), (a, b)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e154, 1e307])
def test_column_scan_matches_the_row_sum(dim, scale):
    # Squared distances overflow to inf at the two larger scales; the
    # column sum must still give the row sum's mask, bit for bit.
    rng = np.random.default_rng(int(dim * 10 + math.log10(scale) % 97))
    pts = (rng.random((300, dim)) * 2.0 - 1.0) * scale
    pts[:3] = [[1.0 * scale] * dim, [-1.0 * scale] * dim, [0.0] * dim]
    space = SebSpace(make_seb(pts))
    assert len(space._columns) == dim
    balls = []
    for size in (1, 2, 3, 12):
        try:
            balls.append(space._ball(sum(1 << int(i) for i in rng.choice(40, size, replace=False)),
                                     []))
        except ValueError:   # the ball itself overflows the float range
            pass
    for _ in range(200):
        center = tuple((rng.random(dim) * 4.0 - 2.0) * scale)
        r2 = float(rng.choice([0.0, rng.random() * scale * scale, rng.random()]))
        balls.append((center, r2))
    for ball in balls:
        assert space._outside(ball) == row_sum_outside(space, ball), ball
    assert len(space._masks) == len(set(balls))


@pytest.mark.parametrize("dim", [0, 3, 4])
def test_other_dimensions_keep_the_row_sum(dim):
    pts = np.random.default_rng(40 + dim).random((30, dim))
    space = SebSpace(make_seb(pts))
    assert space._columns == []
    for g in [1, 0b1011, full_mask(30)]:
        ball = space._ball(g, [])
        assert space._outside(ball) == row_sum_outside(space, ball)


def test_a_dimension_0_space_has_no_violators():
    # Every point of R^0 is the origin: the ball of any nonempty set
    # holds all of them, and a single point is a basis of the whole set.
    inst = make_seb(np.zeros((5, 0)))
    space = SebSpace(inst)
    assert space.dim_hint == 1
    assert [space.violators(g) for g in range(32)] == [full_mask(5)] + [0] * 31
    assert space.violator_table() == [full_mask(5)] + [0] * 31
    assert algorithms.swiss_algorithm(SebSpace(inst), seed=1).basis == 0b1


def _count_calls(monkeypatch, module, name):
    """Wrap module.name, recursive calls included, in a call counter."""
    real, calls = getattr(module, name), [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _count_nodes(monkeypatch):
    """Wrap instances._mb in a counter of planar recursion nodes: one per
    evaluation plus one per point that sets off a recursion, read off the
    hits it appends. The planar scans run a whole evaluation in one _mb
    call, so counting calls would count evaluations alone."""
    real, nodes = instances._mb, [0]

    def counting(pts, order, end, boundary, tol, dim, balls, hits):
        before = len(hits)
        ball = real(pts, order, end, boundary, tol, dim, balls, hits)
        nodes[0] += 1 + len(hits) - before
        return ball

    monkeypatch.setattr(instances, "_mb", counting)
    return nodes


def test_move_to_front_visits_fewer_nodes(monkeypatch):
    # The extreme pass of German solves on 400 planar points asks for V of
    # about 47 points: moving each point that sets off a recursion to the
    # front keeps it from setting off the same recursions again. The
    # kernel's node count is the generic recursion's call count.
    nodes = _count_nodes(monkeypatch)
    generic_nodes = _count_calls(monkeypatch, conftest, "_generic_mb")
    oracle_nodes = _count_calls(monkeypatch, conftest, "_index_order_mb")
    space = SebSpace(generate("uniform-square", {"n": 400, "dim": 2}, 3))
    g = sum(1 << i for i in random.Random(1).sample(range(400), 47))
    assert space.violators(g) == index_order_violators(space, g)
    generic_ball(space, g, [])
    assert 0 < nodes[0] == generic_nodes[0] < oracle_nodes[0]


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
    table = RestrictedSpace(FuncSpace(3, lambda g: 0), 0b101)
    assert table.extreme_candidates(0b11) == 0b11


def test_members_outside_the_final_ball_are_candidates(monkeypatch):
    # A member left outside the final ball (a return at full boundary does
    # not recheck earlier points) changes V when removed, so it must be
    # probed even if it never set off a recursion.
    monkeypatch.setattr(SebSpace, "_ball", lambda self, subset, hits: ((0.0, 0.0), 1.0))
    space = SebSpace(make_seb([(0.0, 0.0), (5.0, 0.0), (9.0, 0.0)]))
    assert space.violators(0b011) == 0b100
    assert space.extreme_candidates(0b011) == 0b010


def _record_evaluations(monkeypatch) -> list[int]:
    """Every subset SebSpace evaluates from now on, in order."""
    evaluated = []
    real = SebSpace._ball

    def counting(self, subset, hits):
        evaluated.append(subset)
        return real(self, subset, hits)

    monkeypatch.setattr(SebSpace, "_ball", counting)
    return evaluated


def test_extreme_pass_evaluates_only_through_the_handle(monkeypatch):
    # Every SEB evaluation of the pass must be a violators() call the proxy
    # sees: the candidates come from the evaluation of V(G) itself, and no
    # leave-one-out probe goes around the handle.
    evaluated = _record_evaluations(monkeypatch)
    space = SebSpace(generate("uniform-square", {"n": 60, "dim": 2}, 5))
    g = full_mask(60) & ~0b1001
    for handle in (space, RestrictedSpace(space, full_mask(60))):
        proxy = RecordingHandle(handle)
        evaluated.clear()
        x = extreme_elements(proxy, g)
        assert len(evaluated) == len(proxy.asked)
        assert proxy.asked[0] == g
        assert len(proxy.asked) < 1 + g.bit_count()     # the pass was narrowed
        assert x == extreme_elements(FuncSpace(60, space.violators), g)


def _enumeration(asked: list[int], x: int) -> list[int]:
    """The candidates basis search asked for, given all its asks and X.

    The enumeration asks for X itself first and for no mask twice, so it
    starts at the last ask of X; every candidate holds X.
    """
    walk = asked[len(asked) - 1 - asked[::-1].index(x):]
    assert all(b & x == x for b in walk)
    return walk


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
        x = extreme_elements(space, g)
        proxy = RecordingHandle(space)
        basis = find_basis(proxy, g)
        assert basis == plain_find_basis(space, g), hex(g)
        candidates = _enumeration(proxy.asked, x)
        v = {b: space.violators(b) for b in candidates}
        for b in candidates:
            m = b & ~x
            while m:
                e = m & -m
                m ^= e
                assert b ^ e not in v or v[b ^ e] & e, (hex(g), hex(b), e)


def test_find_basis_evaluates_only_through_the_handle(monkeypatch):
    # The narrowed search asks V(G) first and the candidates right after
    # it, so each SEB evaluation is one violators() call the proxy sees.
    evaluated = _record_evaluations(monkeypatch)
    space = SebSpace(generate("uniform-square", {"n": 60, "dim": 2}, 5))
    g = full_mask(60) & ~0b1001
    for handle in (space, RestrictedSpace(space, full_mask(60))):
        proxy = RecordingHandle(handle)
        evaluated.clear()
        basis = find_basis(proxy, g)
        assert evaluated == [b for b in proxy.asked if b]
        assert proxy.asked[0] == g
        assert basis == find_basis(FuncSpace(60, space.violators, dim_hint=3), g)


def _basis_clouds(dim: int, seed: int):
    rng = np.random.default_rng(seed)
    u = rng.random((8, dim))
    sphere = generate("sphere-surface", {"n": 16, "dim": dim}, seed).points
    yield np.concatenate([u, u])                              # every point doubled
    yield rng.integers(0, 3, (16, dim)).astype(float)         # integer grid
    yield sphere                                              # unit sphere
    yield np.round(sphere, 1)                                 # rounded to one decimal


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_find_basis_matches_plain_on_degenerate_clouds(monkeypatch, dim):
    # Where the candidates narrow G, the search probes X(G) only on a
    # small valid set inside them; it must still find all of X and return
    # the mask of the unpruned scan, directly and through RestrictedSpace, the
    # test oracle for the support-confined swiss stage of German --inner sa.
    narrowed = _count_calls(monkeypatch, core, "_valid_core")
    rng = random.Random(dim)
    for pts in _basis_clouds(dim, 200 + dim):
        space = SebSpace(make_seb(pts))
        for handle in (space, RestrictedSpace(space, rng.getrandbits(space.n) | 1)):
            for g in [handle.ground] + [rng.getrandbits(handle.n) for _ in range(30)]:
                proxy = RecordingHandle(handle)
                assert find_basis(proxy, g) == plain_find_basis(handle, g), hex(g)
                _enumeration(proxy.asked, extreme_elements(handle, g))   # walked from X
    assert narrowed[0] > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_find_basis_asks_few_large_sets(seed):
    # On 400 planar points, V(G) and the leave-one-out probes of a valid
    # set, a basis of at most d+1 points, are the only asks of sets larger
    # than G's extreme candidates P.
    space = SebSpace(generate("uniform-square", {"n": 400, "dim": 2}, seed))
    g = space.ground
    space.violators(g)
    p = g & space.extreme_candidates(g)
    proxy = RecordingHandle(space)
    basis = find_basis(proxy, g)
    assert sum(b.bit_count() > p.bit_count() for b in proxy.asked) <= space.instance.dim + 2
    assert basis == find_basis(FuncSpace(400, space.violators, dim_hint=3), g)


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
    nodes = _count_nodes(monkeypatch)
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflow_raises_at_once():
    # The first boundary with no ball raises. Recursing on every point from
    # there grows like n^3 in the plane: over 100 s on these 300 points.
    pts = (np.random.default_rng(37).random((300, 2)) * 2.0 - 1.0) * 1e307
    space = SebSpace(make_seb(pts))
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        space.violators(full_mask(300))
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == OVERFLOW_ERROR


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tolerance_0_finds_a_ball_for_doubled_and_grid_clouds(dim):
    # At tolerance 0 rounding can put a boundary point one ulp outside every
    # circumsphere of its boundary, and that is no overflow: the fallback
    # search is repeated within DEFAULT_TOLERANCE.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        u = rng.random((6, dim))
        for pts in (np.concatenate([u, u]), rng.integers(0, 3, (12, dim)).astype(float)):
            SebSpace(make_seb(pts, tolerance=0.0)).violator_table()


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


def test_explicit_violator_table_is_a_copy_of_the_loop(roster):
    for space in [*roster.values(), ExplicitSpace(0, [0])]:
        table = space.violator_table()
        assert table == ViolatorSpace.violator_table(space)
        table[0] ^= 1
        assert space.table[0] != table[0]


def test_seb_point_tuples_are_the_float_of_every_entry():
    # The handle's tuples must hold the floats map(float, row) gives, to
    # the last bit, signed zeros and subnormals included.
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((1024, 2)) * 10.0 ** rng.integers(-300, 300, (1024, 2))
    big = np.finfo(float).max
    pts[:4] = [(-0.0, 0.0), (5e-324, -5e-324), (big, -big), (np.finfo(float).tiny, 1.0)]
    for points in (pts, pts.reshape(-1, 4)[:, :3]):
        space = SebSpace(make_seb(points))
        want = [tuple(map(float, row)) for row in space.instance.points]
        assert all(type(x) is float for p in space._points for x in p)
        assert [[x.hex() for x in p] for p in space._points] == \
            [[x.hex() for x in p] for p in want]

import gc
import random
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vspace import algorithms
from vspace.algorithms import (
    SolveResult,
    SolverStall,
    _bits,
    _place,
    _swiss,
    default_safety_cap,
    german_algorithm,
    german_sample_size,
    sa_forever,
    swiss_algorithm,
    swiss_sample_size,
    weighted_sample,
)
from vspace.core import (
    FuncSpace,
    composite_rounds,
    composite_violators,
    find_basis,
    is_basis,
    resolve_dimension,
)
from vspace.harness import trace_rows
from vspace.instances import SebSpace, generate, make_seb
from vspace.seeding import spawn
from vspace.subsets import elements, full_mask

from conftest import (
    RecordingHandle,
    RestrictedSpace,
    bisect_weighted_sample,
    count_round_records,
    eager_doubling_replay,
    eager_growth_replay,
    expand,
    peel_elements,
)


def test_weighted_sample_bounds():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        weighted_sample([1, 1, 1], 0, rng)
    with pytest.raises(ValueError):
        weighted_sample([1, 1, 1], 4, rng)
    with pytest.raises(ValueError):
        weighted_sample([], 1, rng)
    with pytest.raises(ValueError):
        weighted_sample([0, 0], 1, rng)
    assert weighted_sample([1, 1, 1], 3, rng) == 0b111
    assert weighted_sample([0, 3, 0], 2, rng) == 0b010


def test_weighted_sample_exact_law():
    # weights (2, 1): three slips, r = 2. The collapsed outcomes are
    # {0} (both of element 0's slips, probability 1/3) and {0, 1}
    # (probability 2/3); {1} alone is impossible.
    rng = random.Random(12345)
    counts = Counter()
    trials = 30000
    for _ in range(trials):
        counts[weighted_sample([2, 1], 2, rng)] += 1
    assert set(counts) == {0b01, 0b11}
    assert abs(counts[0b01] / trials - 1 / 3) < 0.02
    assert abs(counts[0b11] / trials - 2 / 3) < 0.02


def test_weighted_sample_uniform_matches_subsets():
    # unit weights: every 2-subset of 4 elements equally likely
    rng = random.Random(999)
    counts = Counter()
    trials = 30000
    for _ in range(trials):
        counts[weighted_sample([1] * 4, 2, rng)] += 1
    assert len(counts) == 6
    for mask, c in counts.items():
        assert mask.bit_count() == 2
        assert abs(c / trials - 1 / 6) < 0.02


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8),
       st.integers(min_value=1, max_value=40), st.integers(0, 2 ** 32))
def test_weighted_sample_properties(mu, r, seed):
    if r > sum(mu):
        return
    mask = weighted_sample(mu, r, random.Random(seed))
    assert mask != 0
    assert mask & ~full_mask(len(mu)) == 0
    assert all(mu[i] for i in elements(mask))
    assert mask.bit_count() <= r
    if all(x == 1 for x in mu):
        assert mask.bit_count() == r


def test_weighted_sample_matches_the_bisect_oracle():
    # Lists and int64 arrays must draw the mask that the bisect_right
    # oracle over Python ints draws, with the same rng calls, on small
    # weights and on weights near and past 2^63, where an int64 sum would
    # wrap and the exact path must take over.
    rng = random.Random(26)
    near = (2 ** 63 - 1, 2 ** 63 - 2, 2 ** 62, 2 ** 62 + 1)
    draws = [lambda: rng.randint(0, 9), lambda: 1 << rng.randrange(63),
             lambda: rng.choice(near), lambda: 2 ** 63 + rng.randrange(3),
             lambda: rng.getrandbits(80)]
    cases = [[2 ** 62] * 4, [2 ** 70, 1], [2 ** 63 - 1, 1], [0, 2 ** 63 - 1, 0], [0, 5, 0]]
    for _ in range(400):
        kinds = rng.sample(draws, rng.randint(1, 2))
        cases.append([rng.choice(kinds)() for _ in range(rng.randint(1, 40))])
    wrapping_arrays = 0
    for mu in cases:
        total = sum(mu)
        if not total:
            continue
        r = rng.randint(1, min(total, 60))
        seed = rng.getrandbits(32)
        want_rng = random.Random(seed)
        want = bisect_weighted_sample(mu, r, want_rng)
        inputs = [mu]
        if max(mu) < 2 ** 63:
            inputs.append(np.array(mu, np.int64))
            wrapping_arrays += total >= 2 ** 63
        for weights in inputs:
            got_rng = random.Random(seed)
            assert weighted_sample(weights, r, got_rng) == want
            assert got_rng.getstate() == want_rng.getstate()
    assert wrapping_arrays >= 50
    with pytest.raises(ValueError, match=rf"sample size {2 ** 71} outside \[1, {2 ** 70 + 1}\]"):
        weighted_sample([2 ** 70, 1], 2 ** 71, rng)


def double(mu, mask):
    """The doubling ledger, independent of the solvers' loop: double mu at
    every bit peeled off mask."""
    for i in peel_elements(mask):
        mu[i] *= 2


def test_weighted_sample_on_a_support_is_the_dense_sample_expanded():
    # A confined doubling run keeps int64 weights for the support's
    # elements only, in order, doubles them through _bits of the violators
    # read at the support's bits, and _place puts its sample at the
    # support's positions. That must be the sample of the weights spread
    # over 0..n-1 with 0 off the support, drawn with the same rng calls:
    # the dense sample expanded, with no zero-weight element ever drawn.
    # Widths in the thousands (some with the full support) and n = 0 check
    # _bits and _place on masks many machine words wide.
    rng = random.Random(16)
    for n in [*(rng.randint(1, 40) for _ in range(400)), 0,
              *(rng.randint(1000, 4000) for _ in range(8))]:
        support = rng.getrandbits(n) | 1 << rng.randrange(n) if n else 0
        if rng.random() < 0.1:
            support = full_mask(n)
        sparse = [support >> i & 1 for i in range(n)]
        on_support = _bits(support, n)
        assert on_support.tolist() == [w == 1 for w in sparse]
        dense = np.ones(support.bit_count(), np.int64)
        for _ in range(rng.randint(0, 6)):
            v = rng.getrandbits(n) & support
            double(sparse, v)
            dense[_bits(v, n)[on_support]] *= 2
        assert dense.tolist() == [sparse[i] for i in elements(support)]
        assert all(w == 0 for i, w in enumerate(sparse) if not support >> i & 1)
        if not support:
            continue
        r = rng.randint(1, min(sum(sparse), 3000))
        seed = rng.getrandbits(32)
        a, b = random.Random(seed), random.Random(seed)
        drawn = weighted_sample(dense, r, b)
        got = _place(drawn, elements(support))
        assert got == expand(drawn, support)
        assert got == weighted_sample(sparse, r, a)
        assert got & ~support == 0
        assert a.getstate() == b.getstate()


GA_KEYS = ("f1", "f2", "seb8", "empty6", "singleton5", "hpart4", "interval12")


@pytest.mark.parametrize("key", GA_KEYS)
def test_german_solves_every_fixture(roster, key):
    space = roster[key]
    d = resolve_dimension(space)
    for t in range(12):
        res = german_algorithm(space, seed=1000 + t)
        assert space.violators(res.basis) == 0
        assert is_basis(space, res.basis)
        assert res.calls <= d + 1
        tr = res.trace
        assert tr.ground_size is None and tr.slips is None  # no weight doubling
        assert tr.terminated_cleanly
        if tr.delegated:
            assert tr.rounds == ()
            continue
        prev = tr.rounds[0].sample
        assert prev.bit_count() == german_sample_size(d, space.n)
        for rec in tr.rounds:
            assert rec.sample == prev
            assert rec.working == rec.sample | rec.violators
            assert rec.controversial == (rec.violators != 0)
            prev = rec.working
        assert not tr.rounds[-1].controversial


def test_german_deterministic(roster):
    a = german_algorithm(roster["interval12"], seed=5)
    b = german_algorithm(roster["interval12"], seed=5)
    assert a == b
    c = german_algorithm(roster["interval12"], seed=6)
    assert a.basis == c.basis  # unique basis of H on this space
    assert a.trace.rounds[0].sample != c.trace.rounds[0].sample


def test_german_inner_sa_agrees(roster):
    for key in ("f1", "interval12"):
        space = roster[key]
        a = german_algorithm(space, seed=21, inner="bfa")
        b = german_algorithm(space, seed=21, inner="sa")
        assert a.basis == b.basis  # nondegenerate: basis of H is unique
        assert space.violators(b.basis) == 0


def test_german_rejects_unknown_inner(roster):
    with pytest.raises(ValueError):
        german_algorithm(roster["f1"], seed=0, inner="nope")


def test_german_delegates_small_ground(roster):
    # singleton5: d = 5, r would exceed n, so the inner solver runs on H
    res = german_algorithm(roster["singleton5"], seed=0)
    assert res.trace.delegated
    assert res.basis == full_mask(5)
    assert res.calls == 1


def test_german_delegation_implies_swiss_delegation():
    # german_algorithm delegates to find_basis(space, space.ground) for
    # either inner solver because an inner swiss run on the whole ground
    # set would delegate to the same call: n <= r_german implies n <= r_swiss.
    pairs = 0
    for d in range(65):
        for n in range(2 * d * d + 3):
            if n <= german_sample_size(d, n):
                assert n <= swiss_sample_size(d, n), (d, n)
            pairs += 1
    assert pairs == 179_075


def test_german_delegated_inners_agree(roster):
    space = roster["singleton5"]  # d = 5, delegated
    for seed in range(6):
        a = german_algorithm(space, seed, inner="sa")
        assert a.trace.delegated
        assert a == german_algorithm(space, seed, inner="bfa")


def test_german_detects_lying_handle():
    # V(G) = {lowest element outside G}: each round grows the working set
    # by one element, so the d+1 budget for the declared d=1 must trip.
    def creep(g):
        missing = full_mask(6) & ~g
        return missing & -missing
    space = FuncSpace(6, creep, dim_hint=1)
    with pytest.raises(RuntimeError, match="axioms"):
        german_algorithm(space, seed=3)


def basis_per_round_german(space, seed, inner="bfa"):
    """Oracle for german_algorithm: a basis B of every round's working set
    (find_basis, or the inner swiss run), then V(B). Returns the last basis
    and the (sample, violators) pair of every round, or None on a stall."""
    d = resolve_dimension(space)
    n = space.n
    r = german_sample_size(d, n)
    g = weighted_sample([1] * n, r, random.Random(spawn(seed, 0)))
    rounds = []
    for calls in range(1, d + 2):
        if inner == "bfa":
            b = find_basis(space, g)
        else:
            inner_space = RestrictedSpace(space, g, dim_hint=d)
            b = expand(swiss_algorithm(inner_space, spawn(seed, calls)).basis, g)
        v = space.violators(b)
        rounds.append((g, v))
        if v == 0:
            return b, rounds
        g |= v
    return None


def _german_clouds():
    yield "planar200", generate("uniform-square", {"n": 200, "dim": 2}, 11).points
    yield "cube120", generate("uniform-square", {"n": 120, "dim": 3}, 12).points
    for dim in (2, 3):
        pts = generate("uniform-square", {"n": 30, "dim": dim}, 13 + dim).points
        yield f"doubled60-d{dim}", np.concatenate([pts, pts])
    yield "sphere60", generate("sphere-surface", {"n": 60, "dim": 3}, 17).points


def _assert_german_matches_oracle(space, seeds, inner):
    for seed in seeds:
        res = german_algorithm(space, seed, inner=inner)
        if res.trace.delegated:
            continue
        basis, rounds = basis_per_round_german(space, seed, inner)
        assert [(rec.sample, rec.violators) for rec in res.trace.rounds] == rounds
        assert [row[1] for row in trace_rows(0, res.trace)] == list(range(1, len(rounds) + 1))
        assert res.basis == basis and res.calls == len(rounds)
        for rec in res.trace.rounds:
            assert space.violators(rec.sample) == rec.violators


@pytest.mark.parametrize("inner", ["bfa", "sa"])
@pytest.mark.parametrize("key", GA_KEYS)
def test_german_matches_basis_per_round_oracle_on_roster(roster, key, inner):
    _assert_german_matches_oracle(roster[key], range(20), inner)


@pytest.mark.parametrize("points", [pytest.param(p, id=name) for name, p in _german_clouds()])
def test_german_matches_basis_per_round_oracle_on_clouds(points):
    space = SebSpace(make_seb(points))
    _assert_german_matches_oracle(space, range(10), "bfa")
    _assert_german_matches_oracle(space, range(2), "sa")


def test_solvers_match_their_oracles_on_20000_planar_points():
    # No other test reaches masks this wide. German (both inner solvers)
    # must equal the per-round oracle round for round, and each swiss
    # round's weight_total and the final weights must be 2 to the power of
    # the doubling counts.
    space = SebSpace(generate("uniform-square", {"n": 20_000, "dim": 2}, 20))
    _assert_german_matches_oracle(space, range(2), "bfa")
    _assert_german_matches_oracle(space, range(2), "sa")
    res = swiss_algorithm(space, seed=20)
    doublings = [0] * space.n
    for rec in res.trace.rounds:
        assert space.violators(rec.sample) == rec.violators
        for i in peel_elements(rec.violators):
            doublings[i] += 1
        assert rec.weight_total == sum(1 << c for c in doublings)
    assert res.trace.final_weights == tuple(1 << c for c in doublings)
    assert res.trace.terminated_cleanly and space.violators(res.basis) == 0


def test_solvers_sample_through_the_module_global(monkeypatch):
    # A wrapper set on vspace.algorithms.weighted_sample (the benchmark's
    # tracer sets one) must see every sample a solver draws: German's
    # first sample, and one per round of every swiss run, inner ones
    # included, that does not delegate.
    space = SebSpace(generate("uniform-square", {"n": 1000, "dim": 2}, 23))
    seed = 7
    swiss_rounds = len(swiss_algorithm(space, seed).trace.rounds)
    german = german_algorithm(space, seed, inner="sa").trace.rounds
    inner_rounds = [len(_swiss(space, rec.sample, spawn(seed, i), 2.0).trace.rounds)
                    for i, rec in enumerate(german, 1)]
    assert swiss_rounds > 1 and all(inner_rounds)
    calls = []
    real = algorithms.weighted_sample

    def counting(mu, r, rng):
        calls.append(r)
        return real(mu, r, rng)

    monkeypatch.setattr(algorithms, "weighted_sample", counting)
    for run, expected in [(lambda: german_algorithm(space, seed, inner="bfa"), 1),
                          (lambda: swiss_algorithm(space, seed), swiss_rounds),
                          (lambda: german_algorithm(space, seed, inner="sa"),
                           1 + sum(inner_rounds))]:
        calls.clear()
        run()
        assert len(calls) == expected


def _assert_inner_sa_asks_like_the_oracle(fresh, seeds):
    # The support-confined swiss stage must ask the parent handle the
    # masks that the RestrictedSpace oracle asks, expanded, in order.
    for seed in seeds:
        run, oracle = RecordingHandle(fresh()), RecordingHandle(fresh())
        if german_algorithm(run, seed, inner="sa").trace.delegated:
            continue
        basis_per_round_german(oracle, seed, "sa")
        assert run.asked == oracle.asked, seed


@pytest.mark.parametrize("key", GA_KEYS)
def test_german_inner_sa_asks_the_oracle_masks_on_roster(roster, key):
    _assert_inner_sa_asks_like_the_oracle(lambda: roster[key], range(20))


def test_german_inner_sa_asks_the_oracle_masks_on_a_cloud():
    points = dict(_german_clouds())["planar200"]
    _assert_inner_sa_asks_like_the_oracle(lambda: SebSpace(make_seb(points)), range(10))


def test_swiss_on_a_support_stays_in_it_and_matches_the_restriction():
    # A support of 40 of 80 planar points is above 2d^2 = 18, so the swiss
    # stage runs rounds: every sample, violator set and basis must lie in
    # the support, and equal the run on the RestrictedSpace oracle.
    space = SebSpace(generate("uniform-square", {"n": 80, "dim": 2}, 23))
    d = resolve_dimension(space)
    support = sum(1 << i for i in random.Random(23).sample(range(80), 40))
    for seed in range(10):
        res = _swiss(space, support, seed, 2.0)
        want = swiss_algorithm(RestrictedSpace(space, support, dim_hint=d), seed)
        assert res.trace.rounds and not res.trace.delegated
        for rec, oracle in zip(res.trace.rounds, want.trace.rounds, strict=True):
            assert rec.sample & ~support == 0 and rec.violators & ~support == 0
            assert (rec.sample, rec.violators) == (expand(oracle.sample, support),
                                                   expand(oracle.violators, support))
        assert res.basis & ~support == 0
        assert res.basis == expand(want.basis, support)


SA_REAL_KEYS = ("f1", "interval12")

# (seed, ground_size, slips, final_weights) of one frozen public swiss
# trace per key: n and the weights stay in the handle's own indexing.
SWISS_FROZEN = {
    "f1": (401, 3, 2, (2, 1, 1)),
    "interval12": (401, 12, 8, (4, 2) + (1,) * 10),
}


@pytest.mark.parametrize("key", SA_REAL_KEYS)
def test_swiss_solves_and_doubles(roster, key):
    space = roster[key]
    seed, n, r, weights = SWISS_FROZEN[key]
    tr = swiss_algorithm(space, seed).trace
    assert (tr.ground_size, tr.slips, tr.final_weights) == (n, r, weights)
    for t in range(10):
        res = swiss_algorithm(space, seed=400 + t)
        assert space.violators(res.basis) == 0
        tr = res.trace
        assert tr.terminated_cleanly and not tr.delegated
        assert tr.ground_size == space.n
        assert tr.slips == swiss_sample_size(resolve_dimension(space), space.n)
        assert res.calls == len(tr.rounds)
        # replay the doubling ledger from the trace
        mu = [1] * space.n
        for rec in tr.rounds:
            assert rec.sample & ~space.ground == 0
            assert space.violators(rec.sample) == rec.violators
            m = rec.violators
            while m:
                low = m & -m
                mu[low.bit_length() - 1] *= 2
                m ^= low
            assert rec.weight_total == sum(mu)
        assert tr.final_weights == tuple(mu)
        assert not tr.rounds[-1].controversial
        assert res.basis & tr.rounds[-1].sample == res.basis
        assert is_basis(space, res.basis)


def basis_per_round_swiss(space, seed, rounds, stop=True):
    """Oracle for the doubling rounds: find_basis of every round's sample,
    then V of that basis. Returns the (sample, violators, weight_total)
    triple of every round, the final weights and the last round's basis;
    with stop, the rounds end at the first one without violators."""
    n = space.n
    r = swiss_sample_size(resolve_dimension(space), n)
    mu = [1] * n
    rng = random.Random(spawn(seed, 0))
    out = []
    for _ in range(rounds):
        sample = weighted_sample(mu, r, rng)
        b = find_basis(space, sample)
        v = space.violators(b)
        double(mu, v)
        out.append((sample, v, sum(mu)))
        if stop and v == 0:
            break
    return out, tuple(mu), b


def _assert_swiss_matches_oracle(space, seeds, forever_seeds, forever_rounds=8):
    cap = default_safety_cap(resolve_dimension(space), space.n)
    for seed in seeds:
        res = swiss_algorithm(space, seed)
        assert not res.trace.delegated
        rounds, weights, basis = basis_per_round_swiss(space, seed, cap)
        assert [(rec.sample, rec.violators, rec.weight_total)
                for rec in res.trace.rounds] == rounds
        assert res.trace.final_weights == weights
        assert res.basis == basis and res.calls == len(rounds)
    for seed in forever_seeds:
        trace = sa_forever(space, seed, forever_rounds)
        rounds, weights, _ = basis_per_round_swiss(space, seed, forever_rounds, stop=False)
        assert [(rec.sample, rec.violators, rec.weight_total) for rec in trace.rounds] == rounds
        assert trace.final_weights == weights


@pytest.mark.parametrize("key", SA_REAL_KEYS)
def test_swiss_matches_basis_per_round_oracle_on_roster(roster, key):
    _assert_swiss_matches_oracle(roster[key], range(20), range(20), forever_rounds=25)


@pytest.mark.parametrize("points", [pytest.param(p, id=name) for name, p in _german_clouds()])
def test_swiss_matches_basis_per_round_oracle_on_clouds(points):
    space = SebSpace(make_seb(points))
    _assert_swiss_matches_oracle(space, range(4), range(2))


def _rounds(trace):
    return [(rec.sample, rec.violators, rec.weight_total) for rec in trace.rounds]


def _german_replay(space, seed, inner):
    d, n = resolve_dimension(space), space.n
    start = weighted_sample([1] * n, german_sample_size(d, n), random.Random(spawn(seed, 0)))
    step = space.violators
    if inner == "sa":
        inner_seeds = iter(range(1, d + 2))

        def step(g):
            return space.violators(_swiss(space, g, spawn(seed, next(inner_seeds)), 2.0).basis)
    return eager_growth_replay(start, step, d + 1, stop=True)


def test_trace_columns_rebuild_the_eager_rounds(roster):
    # A trace keeps its violators and derives the rest: every solver's
    # rounds and final weights must be those of the eager replay, which
    # builds (sample, violators, weight_total) round by round.
    clouds = dict(_german_clouds())
    spaces = [roster[key] for key in GA_KEYS] + [SebSpace(make_seb(clouds[key]))
                                                 for key in ("planar200", "doubled60-d2")]
    for space in spaces:
        d, n = resolve_dimension(space), space.n
        r = swiss_sample_size(d, n)
        for seed in range(6):
            for inner in ("bfa", "sa"):
                tr = german_algorithm(space, seed, inner).trace
                assert tr.final_weights is None
                if not tr.delegated:
                    want = _german_replay(space, seed, inner)
                    assert _rounds(tr) == want
                    assert tr.working == want[-1][0] | want[-1][1]
            if r >= n:
                continue
            runs = [(swiss_algorithm(space, seed).trace, default_safety_cap(d, n), True),
                    (sa_forever(space, seed, 12), 12, False)]
            for tr, rounds, stop in runs:
                want, weights = eager_doubling_replay(space, space.ground, seed, r, rounds, stop)
                assert _rounds(tr) == want
                assert tr.final_weights == weights


def test_doubling_replays_ask_no_handle():
    # A doubling trace keeps its seed and violators column, not the handle:
    # reading its rounds and final weights asks the handle nothing, and
    # gives the eager replay's values after the handle is gone.
    proxy = RecordingHandle(SebSpace(generate("uniform-square", {"n": 80, "dim": 2}, 23)))
    d = resolve_dimension(proxy)
    support = sum(1 << i for i in random.Random(24).sample(range(80), 40))
    runs = [(swiss_algorithm(proxy, 3).trace, proxy.ground, default_safety_cap(d, 80), True),
            (sa_forever(proxy, 3, 12), proxy.ground, 12, False),
            (_swiss(proxy, support, 3, 2.0).trace, support, default_safety_cap(d, 40), True)]
    want = [eager_doubling_replay(proxy, sup, 3, tr.slips, rounds, stop)
            for tr, sup, rounds, stop in runs]
    traces = [tr for tr, *_ in runs]
    asked = len(proxy.asked)
    assert [(_rounds(tr), tr.final_weights) for tr in traces] == want
    assert len(proxy.asked) == asked
    handle = weakref.ref(proxy)
    del proxy, runs
    gc.collect()
    assert handle() is None
    assert [(_rounds(tr), tr.final_weights) for tr in traces] == want


def test_confined_swiss_trace_starts_at_the_support_size():
    # Off the support the weights are 0, so the total before the first
    # round is |support|, not n.
    space = SebSpace(generate("uniform-square", {"n": 80, "dim": 2}, 23))
    d = resolve_dimension(space)
    support = sum(1 << i for i in random.Random(24).sample(range(80), 40))
    r, cap = swiss_sample_size(d, 40), default_safety_cap(d, 40)
    for seed in range(10):
        tr = _swiss(space, support, seed, 2.0).trace
        want, weights = eager_doubling_replay(space, support, seed, r, cap, stop=True)
        assert (tr.support, tr.ground_size, tr.slips) == (support, 80, r)
        assert _rounds(tr) == want
        assert tr.final_weights == weights


def test_confined_swiss_final_weights_are_0_off_the_support():
    # The weights of a confined run start at 0 off the support and are
    # never doubled there, so they end at 0 there, not at 2^0 = 1. A run on
    # the whole ground set keeps no support.
    space = SebSpace(generate("uniform-square", {"n": 80, "dim": 2}, 23))
    support = sum(1 << i for i in random.Random(24).sample(range(80), 40))
    tr = _swiss(space, support, 0, 2.0).trace
    weights = tr.final_weights
    assert tr.support == support
    assert [weights[i] for i in range(80) if not support >> i & 1] == [0] * 40
    assert all(weights[i] >= 1 for i in elements(support))
    assert _swiss(space, space.ground, 0, 2.0).trace.support is None
    assert swiss_algorithm(space, 0).trace.support is None


def _everything_unsampled_violates(n):
    full = full_mask(n)
    return FuncSpace(n, lambda g: full & ~g, dim_hint=2)


def test_doubling_weights_turn_exact_before_int64_could_wrap():
    # Every element outside the sample violates, so most weights double in
    # every round: totals pass 2^63 and single weights 2^63 within 80
    # rounds. The int64 weights must turn into Python ints before they
    # could wrap, so the rounds and final weights stay the replay's on
    # Python ints.
    space = _everything_unsampled_violates(40)
    r = swiss_sample_size(2, 40)
    for seed in range(3):
        trace = sa_forever(space, seed, 80)
        want, weights = eager_doubling_replay(space, space.ground, seed, r, 80, stop=False)
        assert _rounds(trace) == want
        assert trace.final_weights == weights
        assert max(total for _, _, total in want) > 2 ** 63
        assert max(weights) > 2 ** 63


def test_confined_doubling_weights_turn_exact_before_int64_could_wrap():
    # The same on a 30-element support: the confined run never ends
    # cleanly and stalls at its cap, with totals far past 2^63.
    space = _everything_unsampled_violates(40)
    support = sum(1 << i for i in random.Random(26).sample(range(40), 30))
    r, cap = swiss_sample_size(2, 30), default_safety_cap(2, 30)
    for seed in range(2):
        with pytest.raises(SolverStall) as stall:
            _swiss(space, support, seed, 2.0)
        trace = stall.value.trace
        want, weights = eager_doubling_replay(space, support, seed, r, cap, stop=True)
        assert len(want) == cap
        assert _rounds(trace) == want
        assert trace.final_weights == weights
        assert max(total for _, _, total in want) > 2 ** 63


def test_solve_result_calls_builds_no_round_record(roster, monkeypatch):
    # Runs and SolveResult read their round counts off the violators
    # column; only trace.rounds builds records, one per round.
    space = SebSpace(generate("uniform-square", {"n": 400, "dim": 2}, 25))
    small = SebSpace(make_seb(space.instance.points[:5]))
    f1 = roster["f1"]
    built = count_round_records(monkeypatch)
    traces = [german_algorithm(space, 3, "bfa").trace, german_algorithm(space, 3, "sa").trace,
              swiss_algorithm(space, 3).trace, german_algorithm(small, 3).trace,
              composite_rounds(f1, 0b100)]
    assert composite_violators(f1, 0b100) == 0b011
    assert swiss_algorithm(space, 4).calls > 1
    assert [SolveResult(0, tr).calls for tr in traces] == [max(1, len(tr.violators))
                                                          for tr in traces]
    assert built == []
    assert traces[3].delegated and not traces[3].violators
    assert all(tr.violators for tr in traces[:3] + traces[4:])
    for tr in traces:
        built.clear()
        assert len(tr.rounds) == len(tr.violators) == len(built)


def test_swiss_sample_sizes(roster):
    space = roster["interval12"]  # d=2, c=2 -> r=8
    res = swiss_algorithm(space, seed=77)
    assert res.trace.slips == 8
    for rec in res.trace.rounds:
        assert 1 <= rec.sample.bit_count() <= 8


def test_swiss_delegates_small_ground(roster):
    res = swiss_algorithm(roster["seb8"], seed=0)  # r=18 >= n=8
    assert res.trace.delegated
    assert res.basis == 37


def test_swiss_deterministic(roster):
    a = swiss_algorithm(roster["f1"], seed=123)
    b = swiss_algorithm(roster["f1"], seed=123)
    assert a == b


def test_swiss_stall_carries_trace(roster, monkeypatch):
    monkeypatch.setattr("vspace.algorithms.default_safety_cap", lambda d, n: 1)
    space = roster["interval12"]
    stalled = None
    for seed in range(40):
        try:
            swiss_algorithm(space, seed=seed)
        except SolverStall as exc:
            stalled = exc
            break
    assert stalled is not None, "every seed finished in one round"
    assert len(stalled.trace.rounds) == 1
    assert not stalled.trace.terminated_cleanly
    assert stalled.trace.final_weights is not None


def test_sa_forever_fixed_length(roster):
    space = roster["f1"]
    trace = sa_forever(space, seed=9, max_rounds=25)
    assert trace.ground_size == 3 and trace.slips == 2
    assert len(trace.rounds) == 25
    assert [row[1] for row in trace_rows(0, trace)] == list(range(1, 26))
    mu = [1] * 3
    for rec in trace.rounds:
        m = rec.violators
        while m:
            low = m & -m
            mu[low.bit_length() - 1] *= 2
            m ^= low
        assert rec.weight_total == sum(mu)
    assert trace.final_weights == tuple(mu)
    assert trace.terminated_cleanly == (trace.rounds[-1].violators == 0)


def test_sa_forever_deterministic(roster):
    a = sa_forever(roster["f1"], seed=31, max_rounds=12)
    b = sa_forever(roster["f1"], seed=31, max_rounds=12)
    assert a == b


def test_sa_forever_refuses_saturating_sample(roster):
    with pytest.raises(ValueError):
        sa_forever(roster["f2"], seed=0, max_rounds=5)  # r=2 >= n=2
    with pytest.raises(ValueError):
        sa_forever(roster["singleton5"], seed=0, max_rounds=5)


def test_safety_cap_frozen():
    assert default_safety_cap(3, 1024) == 2816
    assert default_safety_cap(1, 3) == 331
    assert default_safety_cap(0, 1) == 128


def test_controversial_rounds_hit_every_basis_of_h(roster):
    # the doubling mechanism: a round with violators doubles at least one
    # element of every basis of the full ground set
    space = roster["f1"]
    bases_of_h = [b for b in range(8)
                  if space.violators(b) == 0 and is_basis(space, b)]
    assert bases_of_h == [0b001]
    trace = sa_forever(space, seed=2, max_rounds=30)
    hit = 0
    for rec in trace.rounds:
        if not rec.controversial:
            continue
        hit += 1
        for basis in bases_of_h:
            assert rec.violators & basis != 0
    assert hit > 0

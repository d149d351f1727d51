import json
import math
from fractions import Fraction

import pytest

from vspace import harness
from vspace.algorithms import german_algorithm, swiss_algorithm
from vspace.harness import (
    BoundParams,
    LOG2_E,
    SAMPLING_STATS_LIMIT,
    TRACE_COLUMNS,
    composite_experiment,
    exact_sampling_stats,
    ga_experiment,
    sa_experiment,
    trace_rows,
    verify_sampling_lemma,
    write_report,
    write_trace_csv,
)
from vspace.core import DIMENSION_LIMIT, FuncSpace
from vspace.instances import ExplicitSpace

from conftest import count_round_records, sampling_stats_by_enumeration, table_pass_cases


def test_exact_stats_frozen_f1(roster):
    space = roster["f1"]
    got = [exact_sampling_stats(space, r) for r in range(4)]
    assert [s.v for s in got] == [Fraction(3), Fraction(1), Fraction(1, 3), Fraction(0)]
    assert [s.x for s in got] == [Fraction(0), Fraction(1), Fraction(1), Fraction(1)]
    assert [s.x_max for s in got] == [0, 1, 1, 1]


def test_extreme_bound_reads_the_largest_extreme_count(roster):
    # seb8 has dimension 3, and some subset has three extreme elements
    space = roster["seb8"]
    assert max(exact_sampling_stats(space, r).x_max for r in range(9)) == 3
    assert verify_sampling_lemma(space, d=3).extreme_bound_ok
    assert not verify_sampling_lemma(space, d=2).extreme_bound_ok


def test_exact_stats_match_the_enumeration(roster):
    for space in table_pass_cases(roster):
        want = [sampling_stats_by_enumeration(space, r) for r in range(space.n + 1)]
        assert [exact_sampling_stats(space, r) for r in range(space.n + 1)] == want
        report = verify_sampling_lemma(space, d=3)
        assert [(row.v, row.x_next) for row in report.rows] == \
            [(want[r].v, want[r + 1].x) for r in range(space.n)]
        assert report.extreme_bound_ok == all(stats.x_max <= 3 for stats in want)


def test_exact_stats_refusals():
    # Every refusal comes before the first oracle call.
    def ask(g):
        raise AssertionError(f"oracle asked for {g:#x}")

    over = f"^exact stats refused: n={SAMPLING_STATS_LIMIT + 1} exceeds {SAMPLING_STATS_LIMIT}$"
    big = FuncSpace(SAMPLING_STATS_LIMIT + 1, ask)
    with pytest.raises(ValueError, match=over):
        exact_sampling_stats(big, 0)
    with pytest.raises(ValueError, match=over):
        verify_sampling_lemma(big, d=1)
    huge = FuncSpace(DIMENSION_LIMIT + 1, ask)
    with pytest.raises(ValueError, match="^dimension computation refused"):
        verify_sampling_lemma(huge)
    small = FuncSpace(3, ask)
    for r in (-1, 4):
        with pytest.raises(ValueError, match=f"^subset size {r} outside \\[0, 3\\]$"):
            exact_sampling_stats(small, r)


@pytest.mark.parametrize("key", ["f1", "f2", "seb8", "empty6", "singleton5",
                                 "hpart4", "interval12"])
def test_sampling_lemma_on_fixtures(roster, key):
    report = verify_sampling_lemma(roster[key])
    assert report.ok
    for row in report.rows:
        # exact rational equality, not approximate
        assert isinstance(row.lhs, Fraction) and isinstance(row.rhs, Fraction)
        assert row.lhs == row.rhs
        assert row.v <= row.corollary_bound


def test_sampling_identity_needs_axioms():
    # this table breaks locality: V(empty) = empty but V({0}) = {0}.
    # Adding 0 to the empty set changes V without 0 ever being a
    # violator, so the pairing behind the identity loses a side at r=0
    space = ExplicitSpace(2, [0, 1, 0, 0])
    report = verify_sampling_lemma(space, d=1)
    assert not report.identity_ok
    bad = report.rows[0]
    assert bad.lhs == 0 and bad.rhs == Fraction(1, 2)
    assert not bad.equal


def test_bound_params():
    p = BoundParams(d=3, n=1024)
    assert p.r_sa == 18
    assert p.alpha == pytest.approx(0.9376463810682565, abs=1e-15)
    assert p.round_bound() == pytest.approx(2.0 * math.log(1024) / -math.log(p.alpha) + 1.0)
    assert BoundParams(d=2, n=4096).alpha == pytest.approx(0.9079430793557843, abs=1e-15)
    assert BoundParams(d=1, n=8, c=1.0).r_sa == 1
    with pytest.raises(ValueError, match="must exceed"):
        _ = BoundParams(d=1, n=8, c=1.0).alpha
    assert BoundParams(d=5, n=10).r_sa == 10  # clamped to n


def test_bound_params_refuse_a_c_without_decay():
    # c d^2 and c d overflow: the sample is everything, and alpha would
    # round to 1, which has no logarithm to divide by
    p = BoundParams(d=3, n=12, c=1e308)
    assert p.r_sa == 12
    with pytest.raises(ValueError, match="rounds to 1"):
        p.round_bound()
    with pytest.raises(ValueError, match="rounds to 1"):
        _ = BoundParams(d=3, n=12, c=math.nextafter(LOG2_E, 2.0)).alpha


def test_bound_params_at_dimension_zero():
    # alpha takes its d -> 0 limit; one round is the whole budget
    assert BoundParams(d=0, n=6).alpha == 0.0
    assert BoundParams(d=0, n=6).round_bound() == 1.0
    assert BoundParams(d=0, n=0).round_bound() == 1.0
    assert BoundParams(d=1, n=1).round_bound() == 1.0
    with pytest.raises(ValueError, match="must exceed"):
        _ = BoundParams(d=0, n=6, c=1.0).alpha


def test_sa_experiment_dimension_zero(roster):
    rep = sa_experiment(roster["empty6"], trials=5, seed=3, forever_traces=4,
                        forever_rounds=3, weight_checkpoints=1)
    assert rep["summary"]["round_bound"] == 1.0
    assert rep["config"]["alpha"] == 0.0
    assert rep["per_trial"]["rounds"] == [1] * 5
    # At d = 0 every checkpoint is round 0, where the total weight is n.
    assert [(row["ell"], row["measured"]) for row in rep["weight_growth"]] == [(0, 6.0)]
    assert rep["pass"]


def test_ga_experiment_structure(roster):
    rep = ga_experiment(roster["interval12"], trials=40, seed=51)
    assert rep["experiment"] == "ga"
    assert rep["config"] == {"n": 12, "d": 2, "r": 5, "inner": "bfa",
                             "trials": 40, "seed": 51}
    assert len(rep["per_trial"]["rounds"]) == 40
    assert rep["summary"]["rounds_max"] <= 3
    assert rep["summary"]["delegated_trials"] == 0
    lo, hi = rep["summary"]["max_working_ci95"]
    assert lo <= rep["summary"]["max_working_mean"] <= hi
    assert [m["name"] for m in rep["metrics"]] == [
        "inner calls <= d+1", "mean final working-set size, 5% slack"]
    assert "stalled" not in rep["summary"]
    assert rep["pass"]


def test_ga_experiment_deterministic(roster):
    a = ga_experiment(roster["interval12"], trials=25, seed=7)
    b = ga_experiment(roster["interval12"], trials=25, seed=7)
    assert a == b
    c = ga_experiment(roster["interval12"], trials=25, seed=8)
    assert a != c


def test_ga_experiment_counts_stalls_when_every_trial_stalls(roster, monkeypatch):
    # declaring d = 0 to the solver caps every german run at one round
    monkeypatch.setattr("vspace.algorithms.resolve_dimension", lambda space: 0)
    rep = ga_experiment(roster["interval12"], trials=4, seed=1)
    assert rep["summary"]["stalled"] == 4
    assert rep["summary"]["rounds_max"] == 0
    assert rep["per_trial"] == {"rounds": [], "max_working": []}
    assert rep["metrics"][-1] == {"name": "trials finishing before the safety cap",
                                  "measured": 0, "bound": 4, "pass": False}
    assert not rep["pass"]


def test_ga_experiment_delegated(roster):
    rep = ga_experiment(roster["singleton5"], trials=10, seed=3)
    assert rep["summary"]["delegated_trials"] == 10
    assert rep["per_trial"]["max_working"] == [5] * 10
    assert rep["pass"]


def test_sa_experiment_structure(roster):
    rep = sa_experiment(roster["f1"], trials=60, seed=13,
                        forever_traces=300, forever_rounds=8,
                        weight_checkpoints=3)
    assert rep["experiment"] == "sa"
    cfg = rep["config"]
    assert cfg["n"] == 3 and cfg["d"] == 1 and cfg["r"] == 2
    assert cfg["alpha"] == pytest.approx(2.0 ** ((math.log2(math.e) - 2.0) / 2.0))
    assert rep["summary"]["stalled"] == 0
    assert len(rep["per_trial"]["rounds"]) == 60
    assert len(rep["tail"]) == 8
    for row in rep["tail"]:
        assert 0.0 <= row["measured"] <= 1.0
        assert row["bound"] <= 1.0 + 1e-12
    # checkpoints at ell = k*d = 1, 2, 3
    assert [row["ell"] for row in rep["weight_growth"]] == [1, 2, 3]
    names = [m["name"] for m in rep["metrics"]]
    assert names == [
        "trials finishing before the safety cap",
        "mean rounds <= beta*log_{1/alpha}(n) + 1",
        "controversial-prefix probabilities within bound",
        "mean total weight after k*d rounds, 5% slack",
    ]
    assert rep["pass"]


def test_sa_experiment_plain_has_no_tail(roster):
    rep = sa_experiment(roster["interval12"], trials=30, seed=2)
    assert "tail" not in rep and "weight_growth" not in rep
    assert len(rep["metrics"]) == 2
    assert rep["pass"]


def test_sa_experiment_refuses_forever_traces_before_trials(roster, monkeypatch):
    # seb8: d = 3, so r = min(8, ceil(2 * 9)) = 8 = n and sa_forever refuses
    calls = []
    monkeypatch.setattr(harness, "swiss_algorithm",
                        lambda *a, **k: calls.append(a) or swiss_algorithm(*a, **k))
    with pytest.raises(ValueError, match="must be below n=8"):
        sa_experiment(roster["seb8"], trials=40, seed=5,
                      forever_traces=200, forever_rounds=8)
    assert calls == []


def test_sa_experiment_refuses_a_c_without_decay_before_any_run(roster, monkeypatch):
    # alpha refuses c <= log2(e), and a c whose alpha rounds to 1, before
    # the first forever trace or trial
    calls = []
    for name in ("sa_forever", "swiss_algorithm"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
    for c, message in ((1.0, "must exceed"), (math.nextafter(LOG2_E, 2.0), "rounds to 1")):
        with pytest.raises(ValueError, match=message):
            sa_experiment(roster["interval12"], trials=3000, seed=1, c=c,
                          forever_traces=200, forever_rounds=8)
    assert calls == []


def test_sa_experiment_deterministic(roster):
    a = sa_experiment(roster["f1"], trials=40, seed=5, forever_traces=50,
                      forever_rounds=6)
    b = sa_experiment(roster["f1"], trials=40, seed=5, forever_traces=50,
                      forever_rounds=6)
    assert a == b


def test_sa_experiment_reads_rounds_off_the_violators_column(roster, monkeypatch):
    # Round counts and controversial prefixes come off trace.violators;
    # only the weight checkpoints replay records, for their totals.
    kwargs = dict(trials=30, seed=5, forever_traces=60, forever_rounds=6)
    built = count_round_records(monkeypatch)
    plain = sa_experiment(roster["f1"], **kwargs)
    assert built == [] and len(plain["tail"]) == 6
    weighed = sa_experiment(roster["f1"], weight_checkpoints=2, **kwargs)
    assert len(built) == 60 * 6
    assert weighed["tail"] == plain["tail"]


def test_composite_experiment_nondegenerate_base(roster):
    rep = composite_experiment(roster["f1"])
    assert rep["config"] == {"n": 3, "d": 1, "dim_bound": 1}
    assert rep["summary"]["base_nondegenerate"] is True
    names = [m["name"] for m in rep["metrics"]]
    assert "nondegeneracy inherited" in names
    assert "sampling identity and corollary on composite" in names
    assert rep["pass"]


def test_composite_experiment_skips_nondegeneracy_of_broken_base():
    # locality fails: V(empty) == {0} and {1,2} avoids it, yet V({1,2}) == 0
    base = ExplicitSpace(3, [1, 2, 1, 4, 1, 2, 0, 0])
    rep = composite_experiment(base)
    assert rep["summary"]["base_nondegenerate"] is None
    assert "nondegeneracy inherited" not in [m["name"] for m in rep["metrics"]]


def test_composite_forms_fail_on_an_inconsistent_base():
    # V({0}) == {0} breaks consistency: the round from {0} pulls in its own
    # start, which the union keeps and the table's difference form drops
    rep = composite_experiment(ExplicitSpace(2, [3, 1, 2, 0]))
    forms = [m["pass"] for m in rep["metrics"] if m["name"] == "union and difference forms agree"]
    assert forms == [False]
    assert not rep["pass"]


def test_composite_experiment_degenerate_base(roster):
    rep = composite_experiment(roster["f2"])
    assert rep["summary"]["base_nondegenerate"] is False
    names = [m["name"] for m in rep["metrics"]]
    assert "nondegeneracy inherited" not in names
    assert rep["pass"]


def test_composite_experiment_hpart4(roster):
    rep = composite_experiment(roster["hpart4"])
    assert rep["config"]["dim_bound"] == 6
    assert rep["summary"]["composite_dimension"] <= 6
    assert rep["pass"]


def test_composite_refuses_large_n():
    with pytest.raises(ValueError, match="refused"):
        composite_experiment(FuncSpace(9, lambda g: 0, dim_hint=0))


def test_trace_rows_ga_golden(roster):
    res = german_algorithm(roster["seb8"], seed=7)
    assert trace_rows(0, res.trace) == [
        (0, 1, 6, 6, 1, 7, 1),
        (0, 2, 7, 7, 0, 7, 0),
    ]


def test_trace_rows_sa_shape(roster):
    res = swiss_algorithm(roster["f1"], seed=11)
    rows = trace_rows(3, res.trace)
    assert len(rows) == len(res.trace.rounds)
    for i, (row, rec) in enumerate(zip(rows, res.trace.rounds), 1):
        trial, idx, ssize, csize, nviol, wow, flag = row
        assert trial == 3 and idx == i
        assert ssize == res.trace.slips == 2
        assert csize == rec.sample.bit_count() <= ssize
        assert nviol == rec.violators.bit_count()
        assert wow == rec.weight_total
        assert flag == int(rec.controversial)


def test_write_trace_csv_byte_stable(roster, tmp_path):
    res = german_algorithm(roster["seb8"], seed=7)
    one, two = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(one, [(0, res.trace)])
    write_trace_csv(two, [(0, res.trace)])
    assert one.read_bytes() == two.read_bytes()
    lines = one.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert lines[1] == "0,1,6,6,1,7,1"
    empty = tmp_path / "empty.csv"
    write_trace_csv(empty, [])
    assert empty.read_bytes() == (",".join(TRACE_COLUMNS) + "\r\n").encode()


def test_write_report_byte_stable(roster, tmp_path):
    rep = ga_experiment(roster["f1"], trials=5, seed=1)
    one, two = tmp_path / "a.json", tmp_path / "b.json"
    write_report(rep, one)
    write_report(rep, two)
    assert one.read_bytes() == two.read_bytes()
    data = json.loads(one.read_text())
    assert data["pass"] is True
    assert one.read_text().endswith("\n")

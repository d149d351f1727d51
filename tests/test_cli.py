import contextlib
import io
import json
import pathlib
import random
import shutil
import subprocess
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vspace.cli import build_parser, main
from vspace.hypercube import partition_to_space, random_partition

from conftest import count_round_records

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_check_table(capsys):
    rc, out, _ = run(capsys, "check", f"{FIXTURES}/f1.json",
                     "--dimension", "--sampling-lemma", "--nondegenerate")
    assert rc == 0
    assert "axioms: pass" in out
    assert "dimension: 1" in out
    assert "sampling-lemma: pass" in out
    assert "nondegenerate: yes" in out
    assert out.rstrip().endswith("overall: pass")


def test_check_degenerate_fails_when_required(capsys):
    rc, out, _ = run(capsys, "check", f"{FIXTURES}/f2.json", "--nondegenerate")
    assert rc == 1
    assert "axioms: pass" in out
    assert "nondegenerate: no" in out
    assert "overall: FAIL" in out


def test_check_broken_table(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"format": "violator-table-v1", "n": 2, "table": [0, 1, 0, 0]}))
    rc, out, _ = run(capsys, "check", str(bad), "--dimension")
    assert rc == 1
    assert "axioms: FAIL" in out
    assert "locality" in out
    assert "dimension: skipped (axioms failed)" in out


def test_check_seb_instance(capsys):
    rc, out, _ = run(capsys, "check", f"{FIXTURES}/seb8.json", "--nondegenerate")
    assert rc == 0
    assert "source=seb-v1" in out


def test_solve_bfa(capsys):
    rc, out, _ = run(capsys, "solve", f"{FIXTURES}/interval12.json",
                     "--algo", "bfa", "--seed", "0")
    assert rc == 0
    assert "basis: 0 11" in out
    assert "basis-size: 2" in out
    assert "violators-of-basis: 0" in out


def test_solve_ga_with_trace(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    rc, out, _ = run(capsys, "solve", f"{FIXTURES}/seb8.json",
                     "--algo", "ga", "--seed", "7", "--trace", str(trace))
    assert rc == 0
    assert "algorithm: ga" in out
    assert "basis: 0 2 5" in out
    assert "rounds: 2" in out
    lines = trace.read_text().splitlines()
    assert lines == [
        "trial,round,sample_size,collapsed_sample_size,violator_count,"
        "working_or_weight,controversial",
        "0,1,6,6,1,7,1",
        "0,2,7,7,0,7,0",
    ]


def test_solve_sa(capsys):
    rc, out, _ = run(capsys, "solve", f"{FIXTURES}/f1.json",
                     "--algo", "sa", "--seed", "3")
    assert rc == 0
    assert "algorithm: sa" in out
    assert "basis: 0" in out


def test_solve_sa_counts_rounds_without_round_records(capsys, tmp_path, monkeypatch):
    # The rounds line reads the trace's violators column; only --trace
    # builds records, one per CSV row.
    built = count_round_records(monkeypatch)
    rc, out, _ = run(capsys, "solve", f"{FIXTURES}/f1.json", "--algo", "sa", "--seed", "3")
    assert rc == 0 and "rounds: " in out and built == []
    csv_path = tmp_path / "t.csv"
    rc, traced, _ = run(capsys, "solve", f"{FIXTURES}/f1.json", "--algo", "sa", "--seed", "3",
                        "--trace", str(csv_path))
    assert rc == 0 and traced.startswith(out)
    assert len(built) == len(csv_path.read_text().splitlines()) - 1 > 0


def test_solve_trace_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        rc, _, _ = run(capsys, "solve", f"{FIXTURES}/interval12.json",
                       "--algo", "sa", "--seed", "99", "--trace", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_ga_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    rc, out, _ = run(capsys, "bench", f"{FIXTURES}/interval12.json",
                     "--algo", "ga", "--trials", "20", "--seed", "5",
                     "--out", str(out_path))
    assert rc == 0
    assert "pass  inner calls <= d+1" in out
    assert "overall: pass" in out
    report = json.loads(out_path.read_text())
    assert report["experiment"] == "ga" and report["pass"] is True


def test_bench_sa_report_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc, _, _ = run(capsys, "bench", f"{FIXTURES}/f1.json",
                       "--algo", "sa", "--trials", "30", "--seed", "12",
                       "--forever-traces", "50", "--forever-rounds", "6",
                       "--weight-checkpoints", "2", "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert "tail" in report and "weight_growth" in report


@pytest.mark.parametrize("n, table", [(1, [0, 0]), (0, [0])])
def test_bench_sa_on_dimension_zero(capsys, tmp_path, n, table):
    path = tmp_path / "dim0.json"
    path.write_text(json.dumps({"format": "violator-table-v1", "n": n, "table": table}))
    rc, out, err = run(capsys, "bench", str(path), "--algo", "sa", "--trials", "1",
                       "--seed", "1", "--out", str(tmp_path / "r.json"))
    assert rc == 0, err
    assert "overall: pass" in out
    assert json.loads((tmp_path / "r.json").read_text())["summary"]["round_bound"] == 1.0


def test_tabulate(capsys, tmp_path):
    out_path = tmp_path / "seb8-table.json"
    rc, out, _ = run(capsys, "tabulate", f"{FIXTURES}/seb8.json",
                     "-o", str(out_path))
    assert rc == 0
    assert "axioms pass" in out
    data = json.loads(out_path.read_text())
    assert data["format"] == "violator-table-v1" and data["n"] == 8
    rc, out, _ = run(capsys, "check", str(out_path))
    assert rc == 0


def test_empty_point_set_is_the_empty_space(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"format": "seb-v1", "dim": 2, "points": []}))
    table = tmp_path / "table.json"
    for argv in (("check", str(path), "--dimension", "--sampling-lemma", "--nondegenerate"),
                 ("solve", str(path), "--algo", "sa", "--seed", "1"),
                 ("tabulate", str(path), "-o", str(table))):
        rc, _, err = run(capsys, *argv)
        assert rc == 0, (argv, err)
    assert json.loads(table.read_text())["table"] == [0]


def test_tabulate_rejects_table_input(capsys):
    rc, _, err = run(capsys, "tabulate", f"{FIXTURES}/f1.json", "-o", "/dev/null")
    assert rc == 2
    assert "expects a point-set instance" in err


def test_hypercube_enumerate(capsys):
    rc, out, _ = run(capsys, "hypercube", "enumerate", "--n", "2", "--count-only")
    assert rc == 0 and out.strip() == "8"
    rc, out, _ = run(capsys, "hypercube", "enumerate", "--n", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {"format": "hcpart-v1", "n": 1,
                     "intervals": [{"bottom": 0, "top": 0}, {"bottom": 1, "top": 1}]}


def test_hypercube_enumerate_refuses_big_n(capsys):
    rc, _, err = run(capsys, "hypercube", "enumerate", "--n", "9")
    assert rc == 2 and "refused" in err


def test_hypercube_roundtrip(capsys):
    rc, out, _ = run(capsys, "hypercube", "roundtrip", "--n", "2")
    assert rc == 0
    assert "partitions: 8" in out
    assert "full table sweep is a bijection: pass" in out
    assert "overall: pass" in out


def test_composite_command(capsys):
    rc, out, _ = run(capsys, "composite", f"{FIXTURES}/f1.json")
    assert rc == 0
    assert "composite axioms" in out
    assert "overall: pass" in out


def test_composite_fails_on_an_inconsistent_table(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"format": "violator-table-v1", "n": 2, "table": [3, 1, 2, 0]}))
    rc, out, _ = run(capsys, "composite", str(bad))
    assert rc == 1
    assert "FAIL  union and difference forms agree" in out
    assert "overall: FAIL" in out


def test_unknown_format_is_input_error(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "nope"}')
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 2
    assert "unknown format tag" in err


def test_missing_file_is_input_error(capsys):
    rc, _, err = run(capsys, "check", "no-such-file.json")
    assert rc == 2
    assert "cannot read" in err


def test_bad_seed_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["solve", f"{FIXTURES}/f1.json", "--algo", "sa", "--seed", "-1"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["solve", f"{FIXTURES}/f1.json", "--algo", "nope", "--seed", "1"])
    capsys.readouterr()


def test_integer_options_keep_their_syntax(capsys):
    # seeds take base prefixes; counts are decimal, leading zeros allowed
    parse = build_parser().parse_args
    base = ["bench", "f.json", "--algo", "sa", "--out", "r.json"]
    args = parse(base + ["--seed", "0x10", "--trials", "010", "--forever-traces", "0"])
    assert (args.seed, args.trials, args.forever_traces) == (16, 10, 0)
    for bad in (("--seed", "1", "--trials", "0x3"), ("--seed", "1", "--trials", "0"),
                ("--seed", str(1 << 64), "--trials", "1"),
                ("--seed", "1", "--trials", "1", "--forever-rounds", "-1")):
        with pytest.raises(SystemExit):
            parse(base + list(bad))
    capsys.readouterr()


def test_installed_entry_point(tmp_path):
    exe = shutil.which("vspace")
    if exe is None:
        pytest.skip("entry point not installed")
    proc = subprocess.run([exe, "check", f"{FIXTURES}/f1.json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout


@st.composite
def space_files(draw):
    """A well-formed violator-table-v1 (n in 0..5) or seb-v1 (0..6 points) payload.

    Arbitrary tables mostly break consistency; consistent ones mostly break
    locality; partition images pass the axioms and are nondegenerate. Point
    sets in dimension 1..3 are uniform, on a small integer grid, collinear,
    drawn with repeats from a few points, or all one point.
    """
    kind = draw(st.sampled_from(("arbitrary", "consistent", "partition", "uniform",
                                 "grid", "collinear", "duplicated", "identical")))
    if kind in ("arbitrary", "consistent", "partition"):
        n = draw(st.integers(0, 5))
        full = (1 << n) - 1
        if kind == "partition":
            part = random_partition(n, random.Random(draw(st.integers(0, 2**32))))
            table = partition_to_space(part, certify=False).table
        else:
            table = draw(st.lists(st.integers(0, full), min_size=1 << n, max_size=1 << n))
            if kind == "consistent":
                table = [v & ~g for g, v in enumerate(table)]
        return {"format": "violator-table-v1", "n": n, "table": table}
    dim, k = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "uniform":
        pts = rng.random((k, dim))
    elif kind == "grid":
        pts = rng.integers(0, 3, (k, dim)).astype(float)
    elif kind == "collinear":
        pts = rng.random(dim) + rng.random((k, 1)) * rng.random(dim)
    elif kind == "duplicated":
        pts = rng.random((3, dim))[rng.integers(0, 3, k)]
    else:
        pts = np.repeat(rng.random((1, dim)), k, axis=0)
    return {"format": "seb-v1", "dim": dim, "points": pts.tolist()}


FUZZ_RUNS = (
    ("check", "--dimension", "--sampling-lemma", "--nondegenerate"),
    ("solve", "--algo", "bfa", "--seed", "1"),
    ("solve", "--algo", "ga", "--seed", "1"),
    ("solve", "--algo", "ga", "--inner", "sa", "--seed", "1"),
    ("solve", "--algo", "sa", "--seed", "1"),
    ("bench", "--algo", "ga", "--trials", "2", "--seed", "1"),
    ("bench", "--algo", "ga", "--inner", "sa", "--trials", "2", "--seed", "1"),
    ("bench", "--algo", "sa", "--trials", "2", "--seed", "1"),
    ("bench", "--algo", "sa", "--trials", "2", "--seed", "1", "--forever-traces", "2",
     "--forever-rounds", "3", "--weight-checkpoints", "1"),
    ("composite",),
    ("tabulate", "-o"),
)


# Finite coordinates whose squared distances overflow the float range.
OVERFLOWING = tuple(
    {"format": "seb-v1", "dim": 2, "points": points}
    for points in ([[1e155, 0], [-1e155, 0], [0, 1e155], [3e154, 2e154]],
                   [[1e308, 0], [-1e308, 0], [0, 1e308], [-1e308, -1e308]])
)


# Two points of the unit square, each twice, at tolerance 0: rounding puts
# a boundary point one ulp outside every circumsphere of its boundary,
# which is no overflow.
DOUBLED_AT_TOLERANCE_0 = {
    "format": "seb-v1", "dim": 2, "tolerance": 0.0,
    "points": [[0.6055995301393269, 0.9088184001853248], [0.4692323376190216, 0.5507846417600732],
               [0.6055995301393269, 0.9088184001853248], [0.4692323376190216, 0.5507846417600732]],
}


def fuzz_argvs(path, tmp):
    """The argv of every FUZZ_RUNS command on the file at `path`."""
    for i, (command, *flags) in enumerate(FUZZ_RUNS):
        # A fresh file per run: truncating and rewriting one file can
        # force a flush to disk on every write.
        out = str(pathlib.Path(tmp) / f"out-{i}.json")
        argv = [command, str(path), *flags]
        if command == "bench":
            argv += ["--out", out]
        elif command == "tabulate":
            argv.append(out)
        yield argv


@settings(max_examples=150, deadline=None)
@given(space_files())
@example({"format": "violator-table-v1", "n": 1, "table": [0, 0]})
@example({"format": "violator-table-v1", "n": 0, "table": [0]})
@example({"format": "seb-v1", "dim": 2, "points": []})
@example(OVERFLOWING[0])
@example(OVERFLOWING[1])
@example(DOUBLED_AT_TOLERANCE_0)
def test_cli_total_on_random_tables(payload):
    # Every command ends with an exit code, never an exception.
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "space.json"
        path.write_text(json.dumps(payload))
        for argv in fuzz_argvs(path, tmp):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = main(argv)
            assert rc in (0, 1, 2), (argv, rc)


def test_doubled_points_at_tolerance_0_are_no_overflow(capsys, tmp_path):
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(DOUBLED_AT_TOLERANCE_0))
    for argv in fuzz_argvs(path, tmp_path):
        rc, out, err = run(capsys, *argv)
        assert "overflows the float range" not in out + err, argv
        if argv[0] == "solve":
            assert rc == 0, (argv, out, err)


@pytest.mark.parametrize("tolerance", [-2.0, float("nan"), float("inf")])
def test_bad_seb_tolerance_is_a_one_line_error(capsys, tmp_path, tolerance):
    path = tmp_path / "seb.json"
    path.write_text(json.dumps({"format": "seb-v1", "dim": 2, "tolerance": tolerance,
                                "points": [[0.0, 0.0], [1.0, 0.5], [0.25, 1.0]]}))
    for argv in fuzz_argvs(path, tmp_path):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err == f"error: {path}: field 'tolerance' must be a finite non-negative number\n"


# Stalls are failed checks (exit 1): the german cap, forced by declaring
# d = 0 to the solver, and inner swiss runs capped at one round, which
# stall in 5 of these 30 trials.
STALLS = (
    ("resolve_dimension", lambda space: 0, ("solve", "--algo", "ga", "--seed", "1")),
    ("default_safety_cap", lambda d, n: 1,
     ("bench", "--algo", "ga", "--inner", "sa", "--trials", "30", "--seed", "3")),
)


@pytest.mark.parametrize("name, patch, argv", STALLS, ids=("ga-cap", "ga-inner-sa"))
def test_cli_stalls_exit_one(capsys, monkeypatch, tmp_path, name, patch, argv):
    monkeypatch.setattr(f"vspace.algorithms.{name}", patch)
    out_path = tmp_path / "out"
    command, *flags = argv
    flag = "--trace" if command == "solve" else "--out"
    rc, out, err = run(capsys, command, f"{FIXTURES}/interval12.json", *flags,
                       flag, str(out_path))
    assert rc == 1, err
    assert err == ""
    if command == "solve":
        assert "stalled: basis loop ran past 1 rounds" in out and "axioms" in out
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("trial,round") and len(lines) == 2
    else:
        assert "FAIL  trials finishing before the safety cap: measured=25 bound=30" in out
        report = json.loads(out_path.read_text())
        assert report["summary"]["stalled"] == 5 and len(report["per_trial"]["rounds"]) == 25


def test_cli_inner_swiss_stall_writes_the_german_trace(capsys, monkeypatch, tmp_path):
    # With inner swiss runs capped at one round, seed 2 stalls in german
    # round 2. The trace holds german round 1 (sample 5 of 12, working set
    # 10), not the inner run's round (8 slips, weight total 12).
    monkeypatch.setattr("vspace.algorithms.default_safety_cap", lambda d, n: 1)
    out_path = tmp_path / "s.csv"
    rc, out, err = run(capsys, "solve", f"{FIXTURES}/interval12.json", "--algo", "ga",
                       "--inner", "sa", "--seed", "2", "--trace", str(out_path))
    assert rc == 1, err
    assert "stalled: inner swiss run stalled: no violator-free basis within 1 rounds" in out
    assert out_path.read_text().splitlines()[1:] == ["0,1,5,5,5,10,1"]


FLOAT_FLAG_RUNS = [
    (command, flag, value)
    for command in ("solve", "bench")
    for flag, value in (("--c", "inf"), ("--c", "nan"), ("--beta", "inf"))
] + [("bench", "--c", "1e308")]


@pytest.mark.parametrize("command, flag, value", FLOAT_FLAG_RUNS)
def test_float_flags_never_end_in_a_traceback(capsys, tmp_path, command, flag, value):
    # Non-finite values are argparse errors; c = 1e308 overflows c d^2 and
    # c d, so the sample is the whole ground set and the round bound is refused.
    argv = [command, f"{FIXTURES}/interval12.json", "--algo", "sa", "--seed", "1", flag, value]
    if command == "bench":
        argv += ["--trials", "2", "--out", str(tmp_path / "r.json")]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), err
    if rc == 2:
        assert [line for line in err.splitlines() if "error:" in line], err


@pytest.mark.parametrize("payload", OVERFLOWING, ids=("1e155", "1e308"))
@pytest.mark.parametrize("argv", [
    ("check", "--dimension"),
    ("tabulate", "-o"),
    ("solve", "--algo", "sa", "--seed", "1"),
    ("solve", "--algo", "ga", "--seed", "1"),
    ("composite",),
], ids=("check", "tabulate", "solve-sa", "solve-ga", "composite"))
def test_overflowing_points_are_one_error_line(capsys, tmp_path, payload, argv):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(payload))
    command, *flags = argv
    if command == "tabulate":
        flags.append(str(tmp_path / "out.json"))
    rc, out, err = run(capsys, command, str(path), *flags)
    assert rc == 2
    assert out == ""
    assert err == ("error: points too far apart: a smallest enclosing ball overflows "
                   "the float range\n")


@pytest.mark.parametrize("argv", [
    ("solve", "--algo", "bfa", "--seed", "1"),
    ("solve", "--algo", "ga", "--seed", "1"),
    ("solve", "--algo", "ga", "--inner", "sa", "--seed", "1"),
    ("solve", "--algo", "sa", "--seed", "1"),
    ("bench", "--algo", "ga", "--trials", "2", "--seed", "1"),
    ("bench", "--algo", "sa", "--trials", "2", "--seed", "1"),
], ids=("solve-bfa", "solve-ga", "solve-ga-inner-sa", "solve-sa", "bench-ga", "bench-sa"))
def test_300_overflowing_points_are_one_error_line_at_once(capsys, tmp_path, argv):
    # The recursion raises at the first boundary with no ball; trying every
    # point from there took over 100 s on these 300 points.
    pts = (np.random.default_rng(37).random((300, 2)) * 2.0 - 1.0) * 1e307
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"format": "seb-v1", "dim": 2, "points": pts.tolist()}))
    command, *flags = argv
    if command == "bench":
        flags += ["--out", str(tmp_path / "r.json")]
    start = time.perf_counter()
    rc, out, err = run(capsys, command, str(path), *flags)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert out == ""
    assert err == ("error: points too far apart: a smallest enclosing ball overflows "
                   "the float range\n")

"""Benchmark of vspace: one workload per process, result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory. With --trace 0 the run measures the end-to-end metrics
with nothing wrapped, scaled to a reference machine speed by a
calibration loop (see CALIBRATION_REF_S). With --trace 1 it runs a fixed
number of ops twice each, untraced and traced, and reports the per-layer
metrics from the traced copies. Every op's output is checked without the
program (see checks.py); an op whose check finds a problem, or that
raises, counts as failed. Results and span files go to perfbench/out/.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3      # set-ups per untraced run; setup_s takes their median
MIN_OPS = 100          # so that ten ops lie beyond the 90th percentile

# The speed of a shared machine drifts by up to a quarter over seconds,
# which would otherwise dominate the spread between runs. A fixed loop that
# uses no vspace code, timed between ops, tracks that drift. Each op's time
# is scaled by CALIBRATION_REF_S over the median of the loop's last
# CALIBRATION_WINDOW times, and set-up by the run's median, so timings read
# in seconds at the reference speed (the loop's median on the machine of
# the README's figures). The result file keeps the raw values.
CALIBRATION_REF_S = 0.0035
CALIBRATION_EVERY_S = 0.2
CALIBRATION_WINDOW = 5


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "vspace", "__init__.py")):
        sys.exit(f"error: no vspace sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import vspace

    if os.path.dirname(os.path.dirname(os.path.abspath(vspace.__file__))) != SRC:
        sys.exit(f"error: imported vspace from {vspace.__file__}, not from {SRC}")


def _run_op(fn, wrap):
    """(output, error): an op that raises counts as failed, and the run goes on."""
    try:
        return fn(wrap), None
    except Exception as exc:  # noqa: BLE001 - every op failure is counted and reported
        return None, f"{type(exc).__name__}: {exc}"


def _count_failed(workload, results) -> int:
    failed = 0
    for key, out, err in results:
        problems = [err] if err else workload.check(key, out)
        if problems:
            failed += 1
            if failed <= 5:
                print(f"op {key} failed: {'; '.join(problems)}", file=sys.stderr)
    return failed


def _identity(space):
    return space


def calibration_s() -> float:
    """Seconds for a fixed loop of bit operations and list indexing."""
    t = time.perf_counter()
    table = list(range(4096))
    total = 0
    for g in range(4096):
        m = g
        while m:
            low = m & -m
            total += table[m ^ low]
            m ^= low
    return time.perf_counter() - t


def untraced(workload, seed: int, seconds: float, workdir: str, import_s: float):
    calibration = []
    setups = []
    for _ in range(SETUP_REPEATS):
        calibration.append(calibration_s())
        t = time.perf_counter()
        workload.setup(seed, workdir)
        setups.append(time.perf_counter() - t)

    def local_scale() -> float:
        return CALIBRATION_REF_S / statistics.median(calibration[-CALIBRATION_WINDOW:])

    durations, scaled, results = [], [], []
    calibration.append(calibration_s())
    scale = local_scale()
    j = 0
    t0 = last = time.perf_counter()
    calibrating = 0.0
    while True:
        for key, fn in workload.round_ops(j):
            ts = time.perf_counter()
            out, err = _run_op(fn, _identity)
            durations.append(time.perf_counter() - ts)
            scaled.append(durations[-1] * scale)
            results.append((key, out, err))
            if time.perf_counter() - last >= CALIBRATION_EVERY_S:
                calibration.append(calibration_s())
                calibrating += calibration[-1]
                scale = local_scale()
                last = time.perf_counter()
        j += 1
        if time.perf_counter() - t0 - calibrating >= seconds and len(durations) >= MIN_OPS:
            break
    wall = time.perf_counter() - t0 - calibrating

    failed = _count_failed(workload, results)
    raw = {
        "op_s_p50": statistics.median(durations),
        "op_s_p90": statistics.quantiles(durations, n=10)[-1],
        "ops_per_s": len(durations) / wall,
        "setup_s": import_s + statistics.median(setups),
    }
    run_scale = CALIBRATION_REF_S / statistics.median(calibration)
    metrics = {
        "op_s_p50": (statistics.median(scaled), "s"),
        "op_s_p90": (statistics.quantiles(scaled, n=10)[-1], "s"),
        "ops_per_s": (raw["ops_per_s"] * sum(durations) / sum(scaled), "ops/s"),
        "setup_s": (raw["setup_s"] * run_scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"raw": raw, "scale": run_scale, "calibration_s": calibration, "rounds": j,
             "setup_runs_s": setups, "import_s": import_s, "timed_s": wall}
    return len(results), failed, metrics, extra


def traced(workload, seed: int, workdir: str, spans_path: str):
    # Imported here so that untraced runs do not count it in setup_s.
    from tracing import LAYER_METRICS, SETUP, OP, Tracer, layer_metrics, zero_calls

    tracer = Tracer()
    tracer.install()
    idx = tracer.open(tracer.name_id(SETUP))
    try:
        workload.setup(seed, workdir)
    finally:
        tracer.close(idx)
        tracer.remove()

    op_id = tracer.name_id(OP)
    results = []
    plain_s = traced_s = 0.0
    n_ops = 0
    for j in range(workload.trace_rounds):
        for key, fn in workload.round_ops(j):
            t = time.perf_counter()
            results.append((key, *_run_op(fn, _identity)))
            plain_s += time.perf_counter() - t
            tracer.install()
            t = time.perf_counter()
            idx = tracer.open(op_id)
            try:
                results.append((key, *_run_op(fn, tracer.space)))
            finally:
                tracer.close(idx)
                tracer.remove()
            traced_s += time.perf_counter() - t
            n_ops += 1

    failed = _count_failed(workload, results)
    values = layer_metrics(tracer, n_ops, traced_s / plain_s)
    missing = zero_calls(tracer, workload.expected_spans)
    for label in missing:
        print(f"warning: {label} recorded zero calls on {workload.name}", file=sys.stderr)
    tracer.write_csv(spans_path)
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
    extra = {"traced_ops": n_ops, "untraced_s": plain_s, "traced_s": traced_s,
             "spans": len(tracer.start), "zero_calls": missing, "spans_file": spans_path}
    return len(results), failed, metrics, extra


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    import_s = time.perf_counter() - T_START

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT)
    workload = WORKLOADS[args.workload]()
    try:
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz")
            attempted, failed, metrics, extra = traced(workload, args.seed, workdir, spans)
        else:
            attempted, failed, metrics, extra = untraced(
                workload, args.seed, args.seconds, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, **extra}, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _import_program()
    sys.exit(main())

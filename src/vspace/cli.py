"""Command-line front end.

Subcommands:
  check       axioms (plus optional lemma checks) on a stored space
  solve       run one solver on a stored instance
  bench       seeded experiment suite, JSON report out
  tabulate    expand a point-set instance into an explicit table
  hypercube   enumerate interval partitions / run the bijection check
  composite   verify the composite-space construction on a stored space

Every command exits 0 exactly when everything it checked passed, 1 on a
failed check, 2 on bad input. File outputs are byte-identical across
reruns with the same arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .algorithms import SolverStall, german_algorithm, swiss_algorithm
from .core import check_axioms, combinatorial_dimension, find_basis, is_nondegenerate
from .harness import (
    composite_experiment,
    ga_experiment,
    sa_experiment,
    verify_sampling_lemma,
    write_report,
    write_trace_csv,
)
from .hypercube import enumerate_partitions, partition_payload, roundtrip_check
from .instances import SEB_FORMAT, TABLE_FORMAT, SebSpace, load_space, save_explicit, tabulate
from .subsets import elements


class CliError(Exception):
    pass


def _load(path):
    try:
        return load_space(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_table_space(path):
    """Space with a full table, and its format tag; point instances get tabulated."""
    space = _load(path)
    if isinstance(space, SebSpace):
        return tabulate(space, certify=False), SEB_FORMAT
    return space, TABLE_FORMAT


def cmd_check(args) -> int:
    space, origin = _load_table_space(args.file)
    report = check_axioms(space)
    axioms_ok = report.ok
    ok = axioms_ok
    print(f"space: n={space.n} source={origin}")
    print(f"axioms: {'pass' if axioms_ok else 'FAIL'}")
    for ce in report.counterexamples[:4]:
        print(f"  {ce.axiom}: {ce.detail}")

    d = None
    if axioms_ok and (args.sampling_lemma or args.dimension or args.nondegenerate):
        d = combinatorial_dimension(space)
    skipped = "skipped (axioms failed)"
    if args.dimension:
        print(f"dimension: {d if axioms_ok else skipped}")
    if args.sampling_lemma:
        if axioms_ok:
            rep = verify_sampling_lemma(space, d=d)
            print(f"sampling-lemma: {'pass' if rep.ok else 'FAIL'} "
                  f"(identity {'exact' if rep.identity_ok else 'BROKEN'}, "
                  f"corollary at d={d} {'holds' if rep.corollary_ok else 'BROKEN'}, "
                  f"extreme counts <= d: {'yes' if rep.extreme_bound_ok else 'no'})")
            ok = ok and rep.ok
        else:
            print(f"sampling-lemma: {skipped}")
    if args.nondegenerate:
        if axioms_ok:
            flag = is_nondegenerate(space)
            print(f"nondegenerate: {'yes' if flag else 'no'}")
            ok = ok and flag
        else:
            print(f"nondegenerate: {skipped}")
    print(f"overall: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_solve(args) -> int:
    space = _load(args.file)
    result = None
    try:
        if args.algo == "ga":
            result = german_algorithm(space, args.seed, inner=args.inner)
        elif args.algo == "sa":
            result = swiss_algorithm(space, args.seed, c=args.c)
    except SolverStall as stall:
        print(f"algorithm: {args.algo}")
        print(f"stalled: {stall}")
        if args.trace:
            write_trace_csv(args.trace, [(0, stall.trace)])
            print(f"trace: {args.trace}")
        return 1
    basis = find_basis(space, space.ground) if result is None else result.basis
    v = space.violators(basis)
    print(f"algorithm: {args.algo}")
    names = " ".join(str(e) for e in elements(basis))
    print(f"basis: {names if names else '(empty)'}")
    print(f"basis-size: {basis.bit_count()}")
    print(f"violators-of-basis: {v.bit_count()}")
    if result is not None:
        tr = result.trace
        print(f"rounds: {len(tr.violators)}  inner-calls: {result.calls}  "
              f"delegated: {'yes' if tr.delegated else 'no'}")
    if args.trace:
        write_trace_csv(args.trace, [(0, result.trace)] if result is not None else [])
        print(f"trace: {args.trace}")
    return 0 if v == 0 else 1


def cmd_bench(args) -> int:
    space = _load(args.file)
    if args.algo == "ga":
        report = ga_experiment(space, args.trials, args.seed, inner=args.inner)
    else:
        report = sa_experiment(
            space, args.trials, args.seed, c=args.c, beta=args.beta,
            forever_traces=args.forever_traces,
            forever_rounds=args.forever_rounds,
            weight_checkpoints=args.weight_checkpoints)
    write_report(report, args.out)
    for m in report["metrics"]:
        print(f"{'pass' if m['pass'] else 'FAIL'}  {m['name']}: "
              f"measured={m['measured']} bound={m['bound']}")
    print(f"report: {args.out}")
    print(f"overall: {'pass' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


def cmd_tabulate(args) -> int:
    space = _load(args.file)
    if not isinstance(space, SebSpace):
        raise CliError(f"{args.file}: tabulate expects a point-set instance")
    space = tabulate(space, certify=True)
    save_explicit(space, args.out)
    ok = space.axiom_report.ok
    print(f"table: {args.out} (n={space.n}, axioms {'pass' if ok else 'FAIL'})")
    return 0 if ok else 1


def cmd_hc_enumerate(args) -> int:
    count = 0
    for part in enumerate_partitions(args.n):
        count += 1
        if not args.count_only:
            line = json.dumps(partition_payload(part), sort_keys=True,
                              separators=(",", ":"))
            sys.stdout.write(line + "\n")
    if args.count_only:
        print(count)
    return 0


def cmd_hc_roundtrip(args) -> int:
    rep = roundtrip_check(args.n)
    print(f"partitions: {rep.partitions}")
    print(f"axioms on every image: {'pass' if rep.all_axioms else 'FAIL'}")
    print(f"nondegenerate images: {'pass' if rep.all_nondegenerate else 'FAIL'}")
    print(f"pattern regenerates partition: {'pass' if rep.all_roundtrip else 'FAIL'}")
    print(f"distinct tables: {'pass' if rep.injective else 'FAIL'}")
    if rep.table_bijection is not None:
        print(f"full table sweep is a bijection: "
              f"{'pass' if rep.table_bijection else 'FAIL'}")
    print(f"overall: {'pass' if rep.ok else 'FAIL'}")
    return 0 if rep.ok else 1


def cmd_composite(args) -> int:
    space, _ = _load_table_space(args.file)
    report = composite_experiment(space)
    for m in report["metrics"]:
        print(f"{'pass' if m['pass'] else 'FAIL'}  {m['name']}: "
              f"measured={m['measured']} bound={m['bound']}")
    print(f"overall: {'pass' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


def _int_arg(low: int, high: float, message: str, base: int = 10):
    """argparse type: an integer in [low, high), written in `base` (0: with prefix)."""
    def parse(text: str) -> int:
        try:
            value = int(text, base)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if not low <= value < high:
            raise argparse.ArgumentTypeError(message)
        return value
    return parse


def _finite_float(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


_seed_type = _int_arg(0, 1 << 64, "seed must fit in 64 bits", base=0)
_positive = _int_arg(1, math.inf, "must be positive")
_nonneg = _int_arg(0, math.inf, "must be nonnegative")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vspace",
        description="violator-space solvers, lemma checks, and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify the axioms of a stored space")
    c.add_argument("file", help="violator-table or point-set JSON")
    c.add_argument("--sampling-lemma", action="store_true",
                   help="also verify the exact sampling identity and its bounds")
    c.add_argument("--dimension", action="store_true",
                   help="also report the combinatorial dimension")
    c.add_argument("--nondegenerate", action="store_true",
                   help="also require every subset to have a unique basis")
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("solve", help="compute a basis of the whole ground set")
    s.add_argument("file")
    s.add_argument("--algo", choices=("bfa", "ga", "sa"), required=True)
    s.add_argument("--inner", choices=("bfa", "sa"), default="bfa",
                   help="inner solver for --algo ga")
    s.add_argument("--seed", type=_seed_type, required=True)
    s.add_argument("--c", type=_finite_float, default=2.0,
                   help="sample-size multiplier for --algo sa (r = ceil(c d^2))")
    s.add_argument("--trace", metavar="CSV",
                   help="write the per-round trace to this file")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="seeded trials against the analytic bounds")
    b.add_argument("file")
    b.add_argument("--algo", choices=("ga", "sa"), required=True)
    b.add_argument("--trials", type=_positive, required=True)
    b.add_argument("--seed", type=_seed_type, required=True)
    b.add_argument("--inner", choices=("bfa", "sa"), default="bfa")
    b.add_argument("--c", type=_finite_float, default=2.0)
    b.add_argument("--beta", type=_finite_float, default=2.0)
    b.add_argument("--forever-traces", type=_nonneg, default=0,
                   help="fixed-length instrumented runs for the tail estimate")
    b.add_argument("--forever-rounds", type=_nonneg, default=0)
    b.add_argument("--weight-checkpoints", type=_nonneg, default=0,
                   help="check mean total weight at rounds d, 2d, ..., kd")
    b.add_argument("--out", required=True, metavar="JSON")
    b.set_defaults(func=cmd_bench)

    t = sub.add_parser("tabulate", help="expand a point-set instance into a table")
    t.add_argument("file")
    t.add_argument("-o", "--out", required=True)
    t.set_defaults(func=cmd_tabulate)

    h = sub.add_parser("hypercube", help="interval partitions of the subset lattice")
    hsub = h.add_subparsers(dest="hc_command", required=True)
    he = hsub.add_parser("enumerate", help="print every partition, one JSON per line")
    he.add_argument("--n", type=_nonneg, required=True)
    he.add_argument("--count-only", action="store_true")
    he.set_defaults(func=cmd_hc_enumerate)
    hr = hsub.add_parser("roundtrip", help="verify the partition/space bijection")
    hr.add_argument("--n", type=_nonneg, required=True)
    hr.set_defaults(func=cmd_hc_roundtrip)

    comp = sub.add_parser("composite", help="verify the composite-space construction")
    comp.add_argument("file")
    comp.set_defaults(func=cmd_composite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A squared distance that overflows to inf still puts its point
        # outside the ball; numpy's warning about it would only add lines
        # to the one-line message a command ends with.
        with np.errstate(over="ignore"):
            return args.func(args)
    except (CliError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

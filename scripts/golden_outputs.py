#!/usr/bin/env python3
"""Write every seeded CLI output of a fixed command list into OUTDIR.

The inputs are the shipped fixtures plus seeded point clouds: 300 planar
points, 340 points of which 40 are duplicates, 30- and 40-point clouds
with every point doubled in 2 and 3 dimensions, 60 points on the unit
sphere, and a 12-point planar cloud with duplicated and cocircular
points that is only tabulated. Each command runs through
`vspace.cli.main` inside OUTDIR, with relative paths, and its exit
code, stdout and stderr go to
`stdout/<name>.txt` next to the files it writes. Two checkouts give the
same bytes exactly when `diff -r` of their OUTDIRs is empty:

    PYTHONPATH=src python3 scripts/golden_outputs.py /tmp/new
    PYTHONPATH=../other/src python3 scripts/golden_outputs.py /tmp/old
    diff -r /tmp/old /tmp/new

The committed manifest holds the SHA-256 of every output, keyed by its
path under OUTDIR, and the Python and numpy versions it was taken with.
`--check MANIFEST` compares a fresh, empty OUTDIR against it, names every
file whose digest moved, and exits 1 if any did; `--write-manifest
MANIFEST` records a run, for a change that moves outputs on purpose:

    PYTHONPATH=src python3 scripts/golden_outputs.py /tmp/new --check scripts/golden_manifest.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import shutil
import sys

import numpy as np

from vspace.cli import main as cli_main
from vspace.instances import generate, make_seb, save_seb

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ("f1", "f2", "interval12", "seb8")
SEED = 20260817

SOLVES = (
    ("bfa", ("--algo", "bfa")),
    ("ga", ("--algo", "ga")),
    ("ga-sa", ("--algo", "ga", "--inner", "sa")),
    ("sa", ("--algo", "sa")),
)
BENCHES = (
    ("ga", ("--algo", "ga", "--trials", "20")),
    ("ga-sa", ("--algo", "ga", "--inner", "sa", "--trials", "20")),
    ("sa", ("--algo", "sa", "--trials", "20")),
    ("sa-forever", ("--algo", "sa", "--trials", "20", "--forever-traces", "200",
                    "--forever-rounds", "8", "--weight-checkpoints", "2")),
)


def write_clouds(indir: pathlib.Path) -> list[str]:
    """Store the seeded point clouds; returns their names."""
    uniform = generate("uniform-square", {"n": 300, "dim": 2}, SEED).points
    clouds = {
        "uniform300": uniform,
        "dupes340": np.concatenate([uniform, uniform[:40]]),
    }
    for dim in (2, 3):
        for k in (30, 40):
            pts = generate("uniform-square", {"n": k, "dim": dim}, SEED + dim).points
            clouds[f"doubled{2 * k}-d{dim}"] = np.concatenate([pts, pts])
    clouds["sphere60"] = generate("sphere-surface", {"n": 60, "dim": 3}, SEED).points
    for name, pts in clouds.items():
        save_seb(make_seb(pts), indir / f"{name}.json")
    return list(clouds)


def write_degenerate12(indir: pathlib.Path) -> str:
    """Store a 12-point planar cloud to tabulate: six points on one circle,
    four seeded points, and copies of one of each; returns its name."""
    ring = 0.5 + 0.25 * np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [0.6, 0.8], [-0.8, -0.6]])
    inner = generate("uniform-square", {"n": 4, "dim": 2}, SEED).points
    save_seb(make_seb(np.concatenate([ring, inner, ring[:1], inner[:1]])),
             indir / "degenerate12.json")
    return "degenerate12"


def run(name: str, argv: list[str]) -> None:
    """One CLI call; its exit code and both streams go to stdout/<name>.txt."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
    with open(f"stdout/{name}.txt", "w", encoding="utf-8") as fh:
        fh.write(f"$ vspace {' '.join(argv)}\nexit: {rc}\n{out.getvalue()}")
        if err.getvalue():
            fh.write(f"stderr:\n{err.getvalue()}")


def digests(outdir: pathlib.Path) -> dict[str, str]:
    """SHA-256 of every file under outdir, keyed by its POSIX relative path."""
    return {p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def check(manifest: dict, found: dict[str, str], versions: dict[str, str]) -> int:
    """Print every output whose digest differs from the manifest's; 1 if any."""
    want = manifest["sha256"]
    moved = [f"changed: {k}" for k in sorted(want.keys() & found.keys()) if want[k] != found[k]]
    moved += [f"missing: {k}" for k in sorted(want.keys() - found.keys())]
    moved += [f"new: {k}" for k in sorted(found.keys() - want.keys())]
    for line in moved:
        print(line)
    for tool, version in versions.items():
        if manifest[tool] != version:
            print(f"note: manifest taken with {tool} {manifest[tool]}, this run has {version}")
    print(f"{len(moved)} of {len(want.keys() | found.keys())} outputs differ from the manifest")
    return 1 if moved else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=pathlib.Path)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", type=pathlib.Path, metavar="MANIFEST",
                      help="compare the outputs with a manifest; exit 1 if any moved")
    mode.add_argument("--write-manifest", type=pathlib.Path, metavar="MANIFEST",
                      help="record the digests of the outputs in a manifest")
    args = ap.parse_args()
    outdir = args.outdir.resolve()
    manifest_in = json.loads(args.check.read_text()) if args.check else None
    manifest_out = args.write_manifest.resolve() if args.write_manifest else None
    for sub in ("inputs", "stdout", "traces", "reports", "tables"):
        (outdir / sub).mkdir(parents=True, exist_ok=True)
    for name in FIXTURES:
        shutil.copyfile(ROOT / "fixtures" / f"{name}.json", outdir / "inputs" / f"{name}.json")
    clouds = write_clouds(outdir / "inputs")
    degenerate = write_degenerate12(outdir / "inputs")
    os.chdir(outdir)

    for name in FIXTURES:
        src = f"inputs/{name}.json"
        run(f"check-{name}", ["check", src, "--dimension", "--sampling-lemma", "--nondegenerate"])
        run(f"composite-{name}", ["composite", src])
    for name in FIXTURES + tuple(clouds):
        src = f"inputs/{name}.json"
        for algo, flags in SOLVES:
            run(f"solve-{algo}-{name}",
                ["solve", src, *flags, "--seed", "7", "--trace", f"traces/{algo}-{name}.csv"])
    for name in FIXTURES + ("uniform300", "doubled80-d3", "sphere60"):
        src = f"inputs/{name}.json"
        for algo, flags in BENCHES:
            run(f"bench-{algo}-{name}",
                ["bench", src, *flags, "--seed", "12", "--out", f"reports/{algo}-{name}.json"])
    for name in ("seb8", degenerate):
        run(f"tabulate-{name}", ["tabulate", f"inputs/{name}.json", "-o", f"tables/{name}.json"])
    run("hypercube-roundtrip-3", ["hypercube", "roundtrip", "--n", "3"])
    found = digests(outdir)
    print(f"wrote {len(found)} files under {outdir}")
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    if manifest_out is not None:
        manifest = {**versions, "sha256": found}
        manifest_out.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"manifest: {manifest_out}")
    return check(manifest_in, found, versions) if manifest_in is not None else 0


if __name__ == "__main__":
    sys.exit(main())

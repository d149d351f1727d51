"""Planted wrong answers: each must count as a failed op.

    python3 -m pytest perfbench/test_checks.py -q

A correct output of the program is taken from a real op first, so that
every check is shown to pass on right answers and to fail on wrong ones.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run._import_program()

from checks import seb_certificate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def failed(workload, key, out) -> int:
    return run._count_failed(workload, [(key, out, None)])


@pytest.fixture(scope="module")
def german():
    workload = WORKLOADS["german-seb400"]()
    workload.setup(7, "")
    key, fn = workload.round_ops(0)[0]
    return workload, key, fn(run._identity)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    workload = WORKLOADS["check-tables"]()
    workload.setup(7, str(tmp_path_factory.mktemp("tables")))
    return workload, {key: fn(run._identity) for key, fn in workload.round_ops(0)}


def test_right_answers_pass(german, tables):
    workload, key, result = german
    assert failed(workload, key, result) == 0
    workload, outs = tables
    for key, out in outs.items():
        assert failed(workload, key, out) == 0, key


def test_basis_with_a_point_dropped(german):
    workload, key, result = german
    low = result.basis & -result.basis
    assert failed(workload, key, dataclasses.replace(result, basis=result.basis ^ low)) == 1


def test_basis_with_a_point_swapped(german):
    workload, key, result = german
    low = result.basis & -result.basis
    other = next(1 << i for i in range(workload.n) if not result.basis >> i & 1)
    swapped = result.basis ^ low | other
    assert failed(workload, key, dataclasses.replace(result, basis=swapped)) == 1


def test_certificate_alone_rejects_a_wrong_basis(german):
    workload, key, result = german
    points = workload.clouds[key[0]]
    assert seb_certificate(points, result.basis, 1e-9) == []
    low = result.basis & -result.basis
    assert seb_certificate(points, result.basis ^ low, 1e-9)
    twin = points.copy()
    twin[low.bit_length() - 1] = twin[(result.basis ^ low).bit_length() - 1]
    assert seb_certificate(twin, result.basis, 1e-9)


def test_german_over_its_round_bound(german):
    workload, key, result = german
    assert failed(workload, key, dataclasses.replace(result, calls=5)) == 1


def _first(workload, kind):
    return next(i for i, entry in enumerate(workload.entries) if entry[2] == kind)


def test_table_with_one_entry_altered(tables):
    workload, outs = tables
    key = _first(workload, "partition")
    rebuilt = list(outs[key].rebuilt)
    rebuilt[5] ^= 1 << (workload.entries[key][0] - 1)
    out = dataclasses.replace(outs[key], rebuilt=tuple(rebuilt))
    assert failed(workload, key, out) == 1


def test_stored_table_with_one_entry_altered(tables, tmp_path):
    workload, _ = tables
    key = _first(workload, "partition")
    n, table, _, _ = workload.entries[key]
    altered = list(table)
    altered[(1 << n) - 1] ^= 1
    path = tmp_path / "altered.json"
    path.write_text(json.dumps({"format": "violator-table-v1", "n": n, "table": altered}))
    assert failed(workload, key, workload._check(str(path), run._identity)) == 1


def test_wrong_dimension(tables):
    workload, outs = tables
    for kind in ("partition", "planar", "degenerate"):
        key = _first(workload, kind)
        out = dataclasses.replace(outs[key], dimension=outs[key].dimension + 1)
        assert failed(workload, key, out) == 1, kind


def test_degenerate_table_called_nondegenerate(tables):
    workload, outs = tables
    for key, (_, _, kind, _) in enumerate(workload.entries):
        if kind == "degenerate":
            out = dataclasses.replace(outs[key], nondegenerate=True)
            assert failed(workload, key, out) == 1


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not os.path.exists(tmp_path / "perfbench" / "out")

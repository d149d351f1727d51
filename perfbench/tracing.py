"""Span tracing of the program's layers, installed from outside the program.

The tracer replaces each traced public function at every vspace module
attribute that holds it, which is where callers inside the package look
it up, and puts the originals back when removed. Violator-oracle calls
are traced through a proxy handle that forwards every other attribute,
so optional methods a space gains stay visible to the solvers.

A span is (name, start, end, parent, size); size is the popcount of the
subset argument where there is one, else -1. Spans stay in flat arrays
in memory and are written out after the run. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from array import array

import numpy as np

import vspace
from vspace import algorithms, cli, core, fixtures, harness, hypercube, instances, seeding, subsets

MODULES = (vspace, subsets, seeding, core, instances, algorithms, harness, hypercube, cli, fixtures)

# (module that defines it, public functions traced). subsets and seeding are
# helpers called inside every other layer; their time stays in their callers.
TRACED = (
    (core, ("find_basis", "extreme_elements", "check_axioms",
            "combinatorial_dimension", "is_nondegenerate")),
    (instances, ("load_explicit", "tabulate")),
    (algorithms, ("german_algorithm", "swiss_algorithm", "weighted_sample")),
    (harness, ("verify_sampling_lemma", "exact_sampling_stats")),
    (hypercube, ("violation_pattern", "pattern_is_hypercube_partition",
                 "pattern_to_partition", "partition_to_space")),
)
SIZED = ("find_basis", "extreme_elements")   # (space, subset, ...) signatures
ORACLE = "instances.oracle"
OP = "bench.op"
SETUP = "bench.setup"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, size: int = -1) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, sized: bool):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = (args[1] if len(args) > 1 else kwargs["subset"]).bit_count() if sized else -1
            idx = open_(nid, size)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def install(self) -> None:
        """Replace every traced function at each module attribute holding it."""
        for owner, fnames in TRACED:
            layer = owner.__name__.rsplit(".", 1)[-1]
            for fname in fnames:
                orig = getattr(owner, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig, fname in SIZED)
                for module in MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            self._patches.append((module, attr, orig))
                            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def space(self, handle) -> "TracedSpace":
        return TracedSpace(handle, self)

    def write_csv(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start", "end", "parent", "size"))
            for i in range(len(self.start)):
                writer.writerow((i, self.names[self.name[i]], repr(self.start[i]),
                                 repr(self.end[i]), self.parent[i], self.size[i]))


class TracedSpace:
    """Violator-space handle tracing violators(); other attributes forward."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._nid = tracer.name_id(ORACLE)
        self._open, self._close = tracer.open, tracer.close

    def violators(self, subset: int) -> int:
        idx = self._open(self._nid, subset.bit_count())
        try:
            return self._inner.violators(subset)
        finally:
            self._close(idx)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


# Per-layer metrics: name -> unit. Values are per op unless the README says
# otherwise; a function never called reads 0.
LAYER_METRICS = {
    "instances.oracle.calls": "count",
    "instances.oracle.self_s": "s",
    "instances.oracle.mean_subset": "elements",
    "instances.oracle.us_per_call_large": "us",
    "instances.oracle.us_per_call_small": "us",
    "instances.tabulate.self_s": "s",
    "instances.load.self_s": "s",
    "core.find_basis.calls": "count",
    "core.find_basis.self_s": "s",
    "core.extreme_elements.self_s": "s",
    "core.extreme_pass.oracle_calls": "count",
    "core.extreme_pass.oracle_s": "s",
    "core.enumeration.oracle_calls": "count",
    "core.enumeration.oracle_s": "s",
    "core.enumeration.candidates_per_basis": "count",
    "core.check_axioms.self_s": "s",
    "core.combinatorial_dimension.self_s": "s",
    "core.is_nondegenerate.self_s": "s",
    "algorithms.rounds": "count",
    "algorithms.working_set": "elements",
    "algorithms.weighted_sample.self_s": "s",
    "algorithms.solver.self_s": "s",
    "harness.verify_sampling_lemma.self_s": "s",
    "harness.exact_sampling_stats.self_s": "s",
    "hypercube.violation_pattern.self_s": "s",
    "hypercube.pattern_to_partition.self_s": "s",
    "hypercube.partition_to_space.self_s": "s",
    "trace.overhead": "ratio",
}


def layer_metrics(tracer: Tracer, n_ops: int, overhead: float) -> dict[str, float]:
    """The per-layer metrics from the recorded spans; see LAYER_METRICS."""
    count = len(tracer.start)
    name = np.frombuffer(tracer.name, dtype=np.int32).astype(np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32).astype(np.int64)
    size = np.frombuffer(tracer.size, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    child = np.zeros(count)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    root = np.arange(count)
    while True:
        up = parent[root]
        step = up >= 0
        if not step.any():
            break
        root[step] = up[step]

    def nid(label: str) -> int:
        return tracer.name_id(label)

    in_op = name[root] == nid(OP)
    pname = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    gparent = np.where(has_parent, parent[np.maximum(parent, 0)], -1)
    gname = np.where(gparent >= 0, name[np.maximum(gparent, 0)], -1)

    def spans(label: str) -> np.ndarray:
        return in_op & (name == nid(label))

    def per_op_self(*labels: str) -> float:
        return float(sum(self_t[spans(label)].sum() for label in labels)) / n_ops

    def mean(values: np.ndarray) -> float:
        return float(values.mean()) if values.size else 0.0

    oracle = spans(ORACLE)
    fb = spans("core.find_basis")
    solver_child = (pname == nid("algorithms.german_algorithm")) | \
        (pname == nid("algorithms.swiss_algorithm"))
    extreme_pass = oracle & (pname == nid("core.extreme_elements")) & \
        (gname == nid("core.find_basis"))
    enumeration = oracle & (pname == nid("core.find_basis"))
    fb_calls = int(fb.sum())
    return {
        "instances.oracle.calls": int(oracle.sum()) / n_ops,
        "instances.oracle.self_s": per_op_self(ORACLE),
        "instances.oracle.mean_subset": mean(size[oracle]),
        "instances.oracle.us_per_call_large": mean(dur[oracle & (size > 20)]) * 1e6,
        "instances.oracle.us_per_call_small": mean(dur[oracle & (size <= 20)]) * 1e6,
        "instances.tabulate.self_s": float(self_t[name == nid("instances.tabulate")].sum()),
        "instances.load.self_s": per_op_self("instances.load_explicit"),
        "core.find_basis.calls": fb_calls / n_ops,
        "core.find_basis.self_s": per_op_self("core.find_basis"),
        "core.extreme_elements.self_s": per_op_self("core.extreme_elements"),
        "core.extreme_pass.oracle_calls": int(extreme_pass.sum()) / n_ops,
        "core.extreme_pass.oracle_s": float(dur[extreme_pass].sum()) / n_ops,
        "core.enumeration.oracle_calls": int(enumeration.sum()) / n_ops,
        "core.enumeration.oracle_s": float(dur[enumeration].sum()) / n_ops,
        "core.enumeration.candidates_per_basis":
            int(enumeration.sum()) / fb_calls if fb_calls else 0.0,
        "core.check_axioms.self_s": per_op_self("core.check_axioms"),
        "core.combinatorial_dimension.self_s": per_op_self("core.combinatorial_dimension"),
        "core.is_nondegenerate.self_s": per_op_self("core.is_nondegenerate"),
        "algorithms.rounds": int((fb & solver_child).sum()) / n_ops,
        "algorithms.working_set": mean(size[fb & solver_child]),
        "algorithms.weighted_sample.self_s": per_op_self("algorithms.weighted_sample"),
        "algorithms.solver.self_s": per_op_self("algorithms.german_algorithm",
                                                "algorithms.swiss_algorithm"),
        "harness.verify_sampling_lemma.self_s": per_op_self("harness.verify_sampling_lemma"),
        "harness.exact_sampling_stats.self_s": per_op_self("harness.exact_sampling_stats"),
        "hypercube.violation_pattern.self_s": per_op_self("hypercube.violation_pattern"),
        "hypercube.pattern_to_partition.self_s": per_op_self("hypercube.pattern_to_partition"),
        "hypercube.partition_to_space.self_s": per_op_self("hypercube.partition_to_space"),
        "trace.overhead": overhead,
    }


def zero_calls(tracer: Tracer, expected: tuple[str, ...]) -> list[str]:
    """The expected span names that were never recorded."""
    seen = {tracer.names[i] for i in set(tracer.name)}
    return [label for label in expected if label not in seen]

"""Concrete violator-space instances.

Two families: explicit tables (the violator map stored entry by entry)
and smallest-enclosing-ball instances (points in R^d, violators of G are
the points outside the smallest ball enclosing G). Plus seeded
generators and JSON file I/O for both.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .core import ViolatorSpace, check_axioms
from .seeding import spawn
from .subsets import elements, full_mask

TABLE_FORMAT = "violator-table-v1"
SEB_FORMAT = "seb-v1"
TABLE_N_LIMIT = 20
TABULATE_LIMIT = 16
DEFAULT_TOLERANCE = 1e-9
BALL_CACHE_LIMIT = 1 << 10


class ExplicitSpace(ViolatorSpace):
    """Violator map stored as a full table of 2^n masks.

    `certified` records whether the table has passed check_axioms; raw
    tables (possibly violating the axioms) are representable on purpose,
    so the checker has something to reject.
    """

    def __init__(self, n: int, table, certified: bool = False):
        if n < 0 or n > TABLE_N_LIMIT:
            raise ValueError(f"explicit table size n={n} outside [0, {TABLE_N_LIMIT}]")
        table = list(table)
        if len(table) != 1 << n:
            raise ValueError(f"table must have exactly {1 << n} entries, got {len(table)}")
        self.n = n
        self.table = table
        self.certified = certified
        self.axiom_report = None
        self.dim_hint = None

    def violators(self, subset: int) -> int:
        return self.table[subset]

    def certify(self):
        """Run the axiom checker, record and return its report."""
        report = check_axioms(self)
        self.axiom_report = report
        self.certified = report.ok
        return report


def load_explicit(path) -> ExplicitSpace:
    """Parse a violator-table-v1 file, validating structure strictly.

    Structural violations (format tag, n range, table length, entry
    range) are parse errors with the offending position. Semantic axiom
    violations are not rejected here; they are check_axioms' job.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("format") != TABLE_FORMAT:
        raise ValueError(f"{path}: missing or wrong format tag (want {TABLE_FORMAT!r})")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0 or n > TABLE_N_LIMIT:
        raise ValueError(f"{path}: field 'n' must be an int in [0, {TABLE_N_LIMIT}]")
    table = data.get("table")
    if not isinstance(table, list):
        raise ValueError(f"{path}: field 'table' must be a list")
    if len(table) != 1 << n:
        raise ValueError(f"{path}: table has {len(table)} entries, want {1 << n}")
    full = full_mask(n)
    for i, v in enumerate(table):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0 or v > full:
            raise ValueError(f"{path}: table[{i}] is not a mask in [0, {full}]")
    return ExplicitSpace(n, table)


def save_explicit(space: ExplicitSpace, path) -> None:
    payload = {"format": TABLE_FORMAT, "n": space.n, "table": list(space.table)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float


@dataclass(frozen=True, eq=False)
class SebInstance:
    """Points in R^dim with the 'outside' predicate's relative tolerance.

    The predicate compares squared distances: h is outside a ball of
    radius r iff dist(h, center)^2 > r^2 * (1 + tolerance). Duplicate
    points are kept; they are distinct ground-set elements.
    """

    dim: int
    points: np.ndarray
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def n(self) -> int:
        return len(self.points)


def make_seb(points, dim: int | None = None, tolerance: float = DEFAULT_TOLERANCE) -> SebInstance:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2:
        raise ValueError("points must be a 2-d array-like")
    if dim is None:
        dim = arr.shape[1]
    if arr.shape[1] != dim:
        raise ValueError(f"points have {arr.shape[1]} coordinates, dim says {dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    arr.setflags(write=False)
    return SebInstance(dim=dim, points=arr, tolerance=tolerance)


def load_seb(path) -> SebInstance:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("format") != SEB_FORMAT:
        raise ValueError(f"{path}: missing or wrong format tag (want {SEB_FORMAT!r})")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"{path}: field 'dim' must be a positive int")
    tol = data.get("tolerance", DEFAULT_TOLERANCE)
    if not isinstance(tol, (int, float)) or isinstance(tol, bool) or not math.isfinite(tol) or tol < 0:
        raise ValueError(f"{path}: field 'tolerance' must be a finite non-negative number")
    pts = data.get("points")
    if not isinstance(pts, list):
        raise ValueError(f"{path}: field 'points' must be a list")
    for i, p in enumerate(pts):
        if not isinstance(p, list) or len(p) != dim:
            raise ValueError(f"{path}: points[{i}] must be a list of {dim} coordinates")
        for x in p:
            if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
                raise ValueError(f"{path}: points[{i}] has a non-finite coordinate")
    return make_seb(pts, dim=dim, tolerance=float(tol))


def save_seb(instance: SebInstance, path) -> None:
    payload = {
        "format": SEB_FORMAT,
        "dim": instance.dim,
        "tolerance": instance.tolerance,
        "points": [[float(x) for x in p] for p in instance.points],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _point_tuples(instance: SebInstance) -> list[tuple[float, ...]]:
    # Plain tuples keep the recursion below out of numpy's per-call
    # overhead; cached on the (frozen) instance after the first use.
    cached = getattr(instance, "_tuples", None)
    if cached is None:
        cached = [tuple(map(float, row)) for row in instance.points]
        object.__setattr__(instance, "_tuples", cached)
    return cached


def _ball_cache(instance: SebInstance) -> dict:
    # Boundary balls keyed by the ordered tuple of their point indices.
    # The solvers ask for V(G) and V(G minus x) for every x in G; those
    # recursions share every prefix before x, so most boundary balls
    # repeat. Emptied when it outgrows BALL_CACHE_LIMIT entries.
    cached = getattr(instance, "_balls", None)
    if cached is None or len(cached) > BALL_CACHE_LIMIT:
        cached = {}
        object.__setattr__(instance, "_balls", cached)
    return cached


def _dot(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def _dist2(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        t = x - y
        s += t * t
    return s


def _solve_linear(a, b):
    """Gaussian elimination with partial pivoting; None when singular."""
    k = len(b)
    m = [list(a[i]) + [b[i]] for i in range(k)]
    scale = max((abs(v) for row in a for v in row), default=0.0)
    floor = scale * 1e-12
    for col in range(k):
        piv, best = col, abs(m[col][col])
        for row in range(col + 1, k):
            v = abs(m[row][col])
            if v > best:
                piv, best = row, v
        if best <= floor:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = 1.0 / m[col][col]
        for row in range(col + 1, k):
            f = m[row][col] * inv
            if f:
                for j in range(col, k + 1):
                    m[row][j] -= f * m[col][j]
    out = [0.0] * k
    for col in range(k - 1, -1, -1):
        s = m[col][k]
        for j in range(col + 1, k):
            s -= m[col][j] * out[j]
        out[col] = s / m[col][col]
    return out


def _circumsphere(bpts):
    """Smallest sphere through all bpts (center in their affine hull).

    Returns (center, radius^2) or None when the points are affinely
    dependent and the system is singular.
    """
    b0 = bpts[0]
    if len(bpts) == 1:
        return b0, 0.0
    diffs = [tuple(x - y for x, y in zip(p, b0)) for p in bpts[1:]]
    k = len(diffs)
    gram = [[2.0 * _dot(diffs[i], diffs[j]) for j in range(k)] for i in range(k)]
    rhs = [_dot(d, d) for d in diffs]
    lam = _solve_linear(gram, rhs)
    if lam is None:
        return None
    center = list(b0)
    for li, dvec in zip(lam, diffs):
        for t, dt in enumerate(dvec):
            center[t] += li * dt
    r2 = _dist2(center, b0)
    if not math.isfinite(r2) or not all(map(math.isfinite, center)):
        return None
    return tuple(center), r2


def _ball_with_boundary(bpts, tol: float):
    """Smallest ball with every point of bpts on (or within tol of) its boundary.

    Degenerate supports (duplicates, affine dependence) fall back to
    enumerating proper subsets and taking the smallest circumsphere that
    still covers all boundary points.
    """
    if not bpts:
        return None
    ball = _circumsphere(bpts)
    if ball is not None:
        return ball
    best = None
    k = len(bpts)
    for size in range(1, k):
        for idx in itertools.combinations(range(k), size):
            cand = _circumsphere([bpts[i] for i in idx])
            if cand is None:
                continue
            c, r2 = cand
            lim = r2 * (1.0 + tol) + 1e-300
            if all(_dist2(p, c) <= lim for p in bpts):
                if best is None or r2 < best[1]:
                    best = cand
        if best is not None:
            return best
    return best


def _mb(pts, sel, boundary: tuple[int, ...], tol: float, dim: int, balls: dict):
    """Smallest ball of the points pts[j], j in sel, with the points
    pts[j], j in boundary, pinned to the sphere.

    Classic recursion on a shrinking prefix: any point outside the
    current ball must lie on the boundary of the true one. Deterministic
    index order, recursion depth <= dim+1. A boundary ball is a function
    of its ordered index tuple alone, so `balls` memoizes it exactly.
    """
    if boundary in balls:
        ball = balls[boundary]
    else:
        ball = balls[boundary] = _ball_with_boundary([pts[j] for j in boundary], tol)
    if len(boundary) == dim + 1:
        return ball
    for i, j in enumerate(sel):
        if ball is not None:
            c, r2 = ball
            if _dist2(pts[j], c) <= r2 * (1.0 + tol):
                continue
        ball = _mb(pts, sel[:i], boundary + (j,), tol, dim, balls)
    return ball


def miniball(instance: SebInstance, subset: int) -> Ball:
    """Smallest enclosing ball of the points selected by `subset`.

    Deterministic: points are processed in index order, so equal inputs
    give bit-identical balls.
    """
    if subset == 0:
        raise ValueError("miniball of the empty set is undefined")
    center, r2 = _mb(_point_tuples(instance), elements(subset), (), instance.tolerance,
                     instance.dim, _ball_cache(instance))
    return Ball(center=center, radius=math.sqrt(r2))


def seb_violators(instance: SebInstance, subset: int) -> int:
    """Points outside the smallest ball enclosing `subset`.

    The empty set is unconstrained: every point violates it. Members of
    `subset` are never reported (consistency by construction).
    """
    if subset == 0:
        return full_mask(instance.n)
    center, r2 = _mb(_point_tuples(instance), elements(subset), (), instance.tolerance,
                     instance.dim, _ball_cache(instance))
    d2 = ((instance.points - np.asarray(center)) ** 2).sum(axis=1)
    outside = d2 > r2 * (1.0 + instance.tolerance)
    mask = 0
    for i in np.flatnonzero(outside):
        mask |= 1 << int(i)
    return mask & ~subset


class SebSpace(ViolatorSpace):
    """Violator-space handle over a smallest-enclosing-ball instance.

    The declared dimension bound is dim+1 (a ball in R^d is pinned by at
    most d+1 points).
    """

    def __init__(self, instance: SebInstance):
        self.instance = instance
        self.n = instance.n
        self.dim_hint = instance.dim + 1

    def violators(self, subset: int) -> int:
        return seb_violators(self.instance, subset)


def tabulate(space: ViolatorSpace, certify: bool = True) -> ExplicitSpace:
    """Materialize a space as an explicit table (and certify it by default)."""
    if space.n > TABULATE_LIMIT:
        raise ValueError(f"tabulate refused: n={space.n} exceeds {TABULATE_LIMIT}")
    table = [space.violators(g) for g in range(1 << space.n)]
    out = ExplicitSpace(space.n, table)
    out.dim_hint = space.dim_hint
    if certify:
        out.certify()
    return out


def generate(kind: str, params: dict, seed: int):
    """Seeded instance generators.

    kinds: "uniform-square" (points in the unit cube), "sphere-surface"
    (points on the unit sphere, a deliberately degenerate cloud),
    "explicit-random-nondegenerate" (random interval partition of the
    hypercube turned into a certified table), "degenerate-fixture" (a
    fixed two-element table with a non-unique basis).
    """
    if kind == "uniform-square":
        n = int(params.get("n"))
        dim = int(params.get("dim", 2))
        tol = float(params.get("tolerance", DEFAULT_TOLERANCE))
        rng = np.random.default_rng(spawn(seed, 0))
        pts = rng.random((n, dim))
        return make_seb(pts, dim=dim, tolerance=tol)
    if kind == "sphere-surface":
        n = int(params.get("n"))
        dim = int(params.get("dim", 3))
        tol = float(params.get("tolerance", DEFAULT_TOLERANCE))
        rng = np.random.default_rng(spawn(seed, 0))
        raw = rng.standard_normal((n, dim))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return make_seb(raw / norms, dim=dim, tolerance=tol)
    if kind == "explicit-random-nondegenerate":
        from .hypercube import partition_to_space, random_partition

        n = int(params.get("n"))
        if n > 6:
            raise ValueError("random nondegenerate tables are limited to n <= 6")
        rng = random.Random(spawn(seed, 0))
        part = random_partition(n, rng)
        return partition_to_space(part)
    if kind == "degenerate-fixture":
        from .fixtures import f2_space

        return f2_space()
    raise ValueError(f"unknown generator kind {kind!r}")

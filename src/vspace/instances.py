"""Concrete violator-space instances and the stored-file formats.

Two families: explicit tables (the violator map stored entry by entry)
and smallest-enclosing-ball instances (points in R^d, violators of G are
the points outside the smallest ball enclosing G). Plus seeded
generators.

Every stored file is JSON read by `_read_json` (one object, checked
format tag) and written by `_write_json` (sorted keys, one trailing
newline); hypercube partitions and harness reports go through the same
two. `load_space` reads either instance format by its tag.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import ViolatorSpace, check_axioms
from .seeding import spawn
from .subsets import elements, full_mask, mask_of

TABLE_FORMAT = "violator-table-v1"
SEB_FORMAT = "seb-v1"
TABLE_N_LIMIT = 20
TABULATE_LIMIT = 16
DEFAULT_TOLERANCE = 1e-9
BALL_CACHE_LIMIT = 1 << 10


class ExplicitSpace(ViolatorSpace):
    """Violator map stored as a full table of 2^n masks.

    Raw tables (possibly violating the axioms) are representable on
    purpose, so the checker has something to reject; `certify` records
    the checker's report.
    """

    def __init__(self, n: int, table):
        if n < 0 or n > TABLE_N_LIMIT:
            raise ValueError(f"explicit table size n={n} outside [0, {TABLE_N_LIMIT}]")
        table = list(table)
        if len(table) != 1 << n:
            raise ValueError(f"table must have exactly {1 << n} entries, got {len(table)}")
        self.n = n
        self.table = table
        self.axiom_report = None
        self.dim_hint = None

    @property
    def certified(self) -> bool:
        """Whether the table has passed check_axioms (via certify)."""
        return self.axiom_report is not None and self.axiom_report.ok

    def violators(self, subset: int) -> int:
        return self.table[subset]

    def violator_table(self) -> list[int]:
        return list(self.table)

    def certify(self):
        """Run the axiom checker, record and return its report."""
        self.axiom_report = check_axioms(self)
        return self.axiom_report


def _read_json(path, tag: str | None = None) -> dict:
    """The JSON object stored at `path`; with `tag`, its format tag must be that."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object with a format tag")
    if tag is not None and data.get("format") != tag:
        raise ValueError(f"{path}: missing or wrong format tag (want {tag!r})")
    return data


def _write_json(payload, path, indent: int | None = None) -> None:
    """Store `payload` with sorted keys and a trailing newline (byte-stable)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def _int_field(data: dict, key: str, low: int, high: float, path) -> int:
    value = data.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= high:
        raise ValueError(f"{path}: field {key!r} must be an int in [{low}, {high}]")
    return value


def _explicit_from(data: dict, path) -> ExplicitSpace:
    n = _int_field(data, "n", 0, TABLE_N_LIMIT, path)
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


def load_explicit(path) -> ExplicitSpace:
    """Parse a violator-table-v1 file, validating structure strictly.

    Structural violations (format tag, n range, table length, entry
    range) are parse errors with the offending position. Semantic axiom
    violations are not rejected here; they are check_axioms' job.
    """
    return _explicit_from(_read_json(path, TABLE_FORMAT), path)


def save_explicit(space: ExplicitSpace, path) -> None:
    _write_json({"format": TABLE_FORMAT, "n": space.n, "table": list(space.table)}, path)


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
    if arr.shape == (0,) and dim is not None:
        arr = arr.reshape(0, dim)
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


def _seb_from(data: dict, path) -> SebInstance:
    dim = _int_field(data, "dim", 1, math.inf, path)
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


def load_seb(path) -> SebInstance:
    """Parse a seb-v1 file; an empty point list is the n = 0 instance."""
    return _seb_from(_read_json(path, SEB_FORMAT), path)


def save_seb(instance: SebInstance, path) -> None:
    _write_json({
        "format": SEB_FORMAT,
        "dim": instance.dim,
        "tolerance": instance.tolerance,
        "points": [[float(x) for x in p] for p in instance.points],
    }, path)


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
    scale = max(map(abs, itertools.chain.from_iterable(a)), default=0.0)
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

    Each Gram entry is computed once: the diagonal is 2 * rhs, and an entry
    below it mirrors the one above. Both are bit for bit the full
    matrix's, because IEEE products commute, every dot product keeps its
    index order, and the only NaNs that can arise are default NaNs.
    """
    b0 = bpts[0]
    if len(bpts) == 1:
        return b0, 0.0
    diffs = [tuple(x - y for x, y in zip(p, b0)) for p in bpts[1:]]
    k = len(diffs)
    rhs = [_dot(d, d) for d in diffs]
    gram = [[0.0] * k for _ in range(k)]
    for i in range(k):
        gram[i][i] = 2.0 * rhs[i]
        for j in range(i + 1, k):
            gram[i][j] = gram[j][i] = 2.0 * _dot(diffs[i], diffs[j])
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


def _ball_with_boundary(bpts, tol: float, dim: int):
    """Smallest ball with every point of bpts on (or within tol of) its boundary.

    The empty boundary has the empty ball, r^2 = -inf, which holds no
    point. Degenerate supports (duplicates, affine dependence) fall back to
    enumerating proper subsets and taking the smallest circumsphere that
    still covers all boundary points. At tol = 0 rounding can leave a
    boundary point one ulp outside every candidate, so a search that finds
    none is repeated within DEFAULT_TOLERANCE. Finite points that still have
    no ball overflow the float range: ValueError.
    """
    if not bpts:
        return (0.0,) * dim, -math.inf
    ball = _circumsphere(bpts)
    if ball is not None:
        return ball
    k = len(bpts)
    for slack in (tol, max(tol, DEFAULT_TOLERANCE)):
        for size in range(1, k):
            best = None
            for idx in itertools.combinations(range(k), size):
                cand = _circumsphere([bpts[i] for i in idx])
                if cand is None:
                    continue
                c, r2 = cand
                lim = r2 * (1.0 + slack) + 1e-300
                if all(_dist2(p, c) <= lim for p in bpts):
                    if best is None or r2 < best[1]:
                        best = cand
            if best is not None:
                return best
    raise ValueError("points too far apart: a smallest enclosing ball overflows the float range")


def _mb(pts, order: list[int], end: int, boundary: tuple[int, ...], tol: float,
        dim: int, balls: dict, hits: list[int]):
    """Smallest ball of the points pts[j], j in order[:end], with the points
    pts[j], j in boundary, pinned to the sphere.

    Welzl's move-to-front recursion: any point outside the current ball
    must lie on the boundary of the true one, so it sets off a recursion
    on the points before it and then moves to the front of `order`,
    leaving every later position as it was. Recursion depth <= dim+1.
    The empty boundary starts from the empty ball, so its first point
    always sets one off. A boundary ball is a function of its ordered
    index tuple alone, so `balls` memoizes it exactly. Every point that
    sets off a recursion is appended to `hits`.

    Planar points take an inlined containment test: the limit
    r^2 * (1 + tol) is computed once per ball, and the squared distance is
    t0*t0 + t1*t1. That is bit for bit _dist2's (0.0 + t0*t0) + t1*t1,
    because t*t is never -0.0, so adding it to +0.0 is exact. Every other
    dimension runs the generic loop.
    """
    if boundary in balls:
        ball = balls[boundary]
    else:
        ball = balls[boundary] = _ball_with_boundary([pts[j] for j in boundary], tol, dim)
    if len(boundary) == dim + 1:
        return ball
    if dim == 2:
        (c0, c1), r2 = ball
        lim = r2 * (1.0 + tol)
        for i in range(end):
            j = order[i]
            p = pts[j]
            t0 = p[0] - c0
            t1 = p[1] - c1
            if t0 * t0 + t1 * t1 <= lim:
                continue
            hits.append(j)
            (c0, c1), r2 = ball = _mb(pts, order, i, boundary + (j,), tol, dim, balls, hits)
            lim = r2 * (1.0 + tol)
            del order[i]
            order.insert(0, j)
        return ball
    for i in range(end):
        j = order[i]
        c, r2 = ball
        if _dist2(pts[j], c) <= r2 * (1.0 + tol):
            continue
        hits.append(j)
        ball = _mb(pts, order, i, boundary + (j,), tol, dim, balls, hits)
        del order[i]
        order.insert(0, j)
    return ball


def miniball(instance: SebInstance, subset: int) -> Ball:
    """Smallest enclosing ball of the points selected by `subset`.

    Deterministic: each evaluation starts from index order and moves each
    point that sets off a recursion to the front, so the ball is a
    function of the subset and equal inputs give bit-identical balls.
    """
    if subset == 0:
        raise ValueError("miniball of the empty set is undefined")
    center, r2 = SebSpace(instance)._ball(subset, [])
    return Ball(center=center, radius=math.sqrt(r2))


def seb_violators(instance: SebInstance, subset: int) -> int:
    """Points outside the smallest ball enclosing `subset`.

    The empty set is unconstrained: every point violates it. Members of
    `subset` are never reported (consistency by construction).
    """
    return SebSpace(instance).violators(subset)


class SebSpace(ViolatorSpace):
    """Violator-space handle over a smallest-enclosing-ball instance.

    The declared dimension bound is dim+1 (a ball in R^d is pinned by at
    most d+1 points). Each evaluation starts from index order and moves
    each point that sets off a recursion to the front, so a ball is a
    deterministic function of the subset. Each violators() call keeps
    what its recursion found, so extreme_candidates() right after it, or
    the same violators() call again, costs no second one.

    Two memos answer from what the handle has already computed: the
    boundary balls of the recursion, and the outside mask of every ball it
    has scanned. Both are emptied together, when the ball memo outgrows
    BALL_CACHE_LIMIT entries. A ball and its mask are functions of their
    keys alone, so every answer is bit-identical to a fresh handle's.
    """

    def __init__(self, instance: SebInstance):
        self.instance = instance
        self.n = instance.n
        self.dim_hint = instance.dim + 1
        # Plain tuples keep the recursion out of numpy's per-call overhead;
        # tolist() gives the float() of every entry, bit for bit.
        self._points = [tuple(row) for row in instance.points.tolist()]
        # Dims 1 and 2 scan one contiguous array per coordinate (_outside).
        self._columns = ([np.ascontiguousarray(col) for col in instance.points.T]
                         if 1 <= instance.dim <= 2 else [])
        # Boundary balls keyed by the ordered tuple of their point indices.
        # The solvers ask for V(G) and V(G minus x) for every x in G; those
        # recursions share every prefix before x, so most boundary balls
        # repeat. Outside masks keyed by the (center, r^2) ball they were
        # scanned from: a leave-one-out probe mostly ends on a ball met
        # before. _recurse empties both when _balls outgrows BALL_CACHE_LIMIT
        # entries, so that one limit bounds both.
        self._balls: dict = {}
        self._masks: dict = {}
        self._last = (None, 0, [])

    def _ball(self, subset: int, hits: list[int]):
        """(center, r^2) of the smallest ball enclosing `subset`; the empty
        set has the empty ball, r^2 = -inf.

        `hits` collects the points that set off a recursion (see
        extreme_candidates).
        """
        order = elements(subset)
        return self._recurse(order, len(order), (), hits)

    def _recurse(self, order: list[int], end: int, boundary: tuple[int, ...], hits: list[int]):
        """The one place the recursion runs: _mb on the ball memo, emptied
        first, with the mask memo, when it has outgrown BALL_CACHE_LIMIT
        entries."""
        if len(self._balls) > BALL_CACHE_LIMIT:
            self._balls, self._masks = {}, {}
        inst = self.instance
        return _mb(self._points, order, end, boundary, inst.tolerance, inst.dim, self._balls, hits)

    def _outside(self, ball) -> int:
        """Mask of every point outside `ball`, members of its subset included;
        a ball already in the mask memo is not scanned again.

        Dims 1 and 2 add the squared coordinate differences column by
        column, which skips numpy's slow reduce over a short axis. A sum
        of at most two terms is the same in either order, so the mask is
        bit for bit the row sum's. With three or more terms the order is
        numpy's choice (pairwise from 8 columns on, numpy 2.4), so dims 3
        and up keep the row sum, as does dim 0, which has no column.
        """
        mask = self._masks.get(ball)
        if mask is None:
            center, r2 = ball
            inst = self.instance
            if self._columns:
                d2 = (self._columns[0] - center[0]) ** 2
                for col, c in zip(self._columns[1:], center[1:]):
                    d2 += (col - c) ** 2
            else:
                d2 = ((inst.points - np.asarray(center)) ** 2).sum(axis=1)
            bits = np.packbits(d2 > r2 * (1.0 + inst.tolerance), bitorder="little")
            mask = self._masks[ball] = int.from_bytes(bits.tobytes(), "little")
        return mask

    def violators(self, subset: int) -> int:
        """Every point outside the smallest ball enclosing `subset`, members
        left out; the empty set is unconstrained, so every point is outside it.
        Asking for the subset of the last call again reuses its answer.
        """
        if self._last[0] != subset:
            hits = []
            self._last = (subset, self._outside(self._ball(subset, hits)), hits)
        return self._last[1] & ~subset

    def violator_table(self) -> list[int]:
        """V of every subset G, each grown from G minus its largest index k.

        Evaluating G scans its members in index order, so it reaches k last.
        Move-to-front reorders only positions before the current one, and a
        nested recursion scans only those, so at k the order list and the
        ball are the ones that evaluating G minus k ends with. One more scan
        step finishes G: the same float operations on the same boundary
        tuples as violators(G), so the same entry, whatever the points. A
        depth-first walk keeps that state for each subset it extends; the
        outside masks come from the handle's mask memo.
        """
        pts, tol = self._points, self.instance.tolerance
        table = [full_mask(self.n)] * (1 << self.n)   # the walk fills all but V(empty set)
        stack = [(0, [], self._ball(0, []))]   # (subset, order list, ball) after its scan
        while stack:
            subset, order, ball = stack.pop()
            for k in range(subset.bit_length(), self.n):
                grown, grown_order, grown_ball = subset | 1 << k, order + [k], ball
                if not _dist2(pts[k], ball[0]) <= ball[1] * (1.0 + tol):
                    grown_ball = self._recurse(grown_order, len(order), (k,), [])
                    del grown_order[len(order)]
                    grown_order.insert(0, k)
                table[grown] = self._outside(grown_ball) & ~grown
                stack.append((grown, grown_order, grown_ball))
        return table

    def extreme_candidates(self, subset: int) -> int:
        """The points that set off a recursion, plus members outside the ball.

        Any other member s was met only where the step was a no-op and was
        never moved, so the recursion on subset minus s makes the same float
        operations on the same boundary tuples and returns a bit-identical
        ball: V(subset minus s) == V(subset), whatever the points.
        """
        self.violators(subset)
        _, outside, hits = self._last
        return outside & subset | mask_of(hits)


def load_space(path) -> ExplicitSpace | SebSpace:
    """The space stored at `path`, read once and dispatched on its format tag.

    violator-table-v1 gives an ExplicitSpace; seb-v1 gives a SebSpace,
    whose violators stay implicit (tabulate it for a full table).
    """
    data = _read_json(path)
    fmt = data.get("format")
    if fmt == TABLE_FORMAT:
        return _explicit_from(data, path)
    if fmt == SEB_FORMAT:
        return SebSpace(_seb_from(data, path))
    raise ValueError(f"{path}: unknown format tag {fmt!r}")


def tabulate(space: ViolatorSpace, certify: bool = True) -> ExplicitSpace:
    """Materialize a space as an explicit table (and certify it by default)."""
    if space.n > TABULATE_LIMIT:
        raise ValueError(f"tabulate refused: n={space.n} exceeds {TABULATE_LIMIT}")
    out = ExplicitSpace(space.n, space.violator_table())
    out.dim_hint = space.dim_hint
    if certify:
        out.certify()
    return out


def generate(kind: str, params: dict, seed: int):
    """Seeded instance generators.

    kinds: "uniform-square" (points in the unit cube) and "sphere-surface"
    (points on the unit sphere, a deliberately degenerate cloud).
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
    raise ValueError(f"unknown generator kind {kind!r}")

import random

import numpy as np
import pytest

from vspace.fixtures import (
    empty_violators_space,
    f1_space,
    f2_space,
    interval_space,
    singleton_pattern_space,
)
from vspace.hypercube import partition_to_space, random_partition
from vspace.instances import SebSpace, _ball_with_boundary, _dist2, generate, tabulate
from vspace.seeding import spawn
from vspace.subsets import elements, full_mask, iter_by_size_then_value

FIXTURE_SEED = 20260817

# Every entry is a certified explicit table; n spans 2..12 and the set
# deliberately includes one degenerate space (f2) and one tabulated
# point-set instance (seb8).
ROSTER_KEYS = ("f1", "f2", "seb8", "empty6", "singleton5", "hpart4", "interval12")


def build_roster() -> dict:
    hpart = partition_to_space(
        random_partition(4, random.Random(spawn(FIXTURE_SEED, 1))))
    return {
        "f1": f1_space(),
        "f2": f2_space(),
        "seb8": tabulate(SebSpace(generate("uniform-square",
                                           {"n": 8, "dim": 2}, FIXTURE_SEED))),
        "empty6": empty_violators_space(),
        "singleton5": singleton_pattern_space(),
        "hpart4": hpart,
        "interval12": interval_space(),
    }


def plain_find_basis(space, subset):
    """Oracle for find_basis: the unpruned (popcount, value) scan of `subset`."""
    for b in iter_by_size_then_value(subset):
        if space.violators(b) & subset == 0:
            return b
    raise ValueError(f"no basis below {subset:#x}")


def _index_order_mb(pts, sel, boundary, tol, dim):
    """The miniball recursion on a shrinking prefix, in plain index order."""
    ball = _ball_with_boundary([pts[j] for j in boundary], tol)
    if len(boundary) == dim + 1:
        return ball
    for i, j in enumerate(sel):
        if ball is not None:
            c, r2 = ball
            if _dist2(pts[j], c) <= r2 * (1.0 + tol):
                continue
        ball = _index_order_mb(pts, sel[:i], boundary + (j,), tol, dim)
    return ball


def index_order_violators(space: SebSpace, subset: int) -> int:
    """Oracle for SebSpace.violators: the same outside test around the ball
    of the index-order recursion, which moves no point."""
    inst = space.instance
    if not subset:
        return full_mask(space.n)
    center, r2 = _index_order_mb(space._points, elements(subset), (), inst.tolerance, inst.dim)
    d2 = ((inst.points - np.asarray(center)) ** 2).sum(axis=1)
    outside = sum(1 << int(i) for i in np.flatnonzero(d2 > r2 * (1.0 + inst.tolerance)))
    return outside & ~subset


@pytest.fixture(scope="session")
def roster() -> dict:
    return build_roster()

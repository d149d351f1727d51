"""Reference spaces used throughout the tests and shipped under fixtures/.

f1 is the 3-element workhorse table, f2 the minimal degenerate table
(one set with two minimal bases). The parametric families cover the
corner cases: an all-empty violator map, the all-singletons pattern
V(G) = H \\ G, the "smallest element wins" order space, and a 1-d
interval space with dimension 2 built from exact integer comparisons.
"""

from __future__ import annotations

from .instances import ExplicitSpace
from .subsets import full_mask


def min_order_table(n: int) -> list[int]:
    """V(G) = elements below min(G); V(empty) = everything. Dimension 1."""
    full = full_mask(n)
    table = [full]
    for g in range(1, 1 << n):
        low = g & -g
        table.append(low - 1)
    return table


def interval_table(n: int) -> list[int]:
    """Points 0..n-1 on a line; violators lie outside [min(G), max(G)].

    Dimension 2 and nondegenerate, with every entry exact.
    """
    full = full_mask(n)
    table = [full]
    for g in range(1, 1 << n):
        lo = (g & -g).bit_length() - 1
        hi = g.bit_length() - 1
        inside = ((1 << (hi - lo + 1)) - 1) << lo
        table.append(full & ~inside)
    return table


def f1_table() -> list[int]:
    return min_order_table(3)


def f1_space() -> ExplicitSpace:
    space = ExplicitSpace(3, f1_table())
    space.certify()
    return space


def f2_table() -> list[int]:
    # both {0} and {1} are minimal sets with the violator set of {0,1}
    return [3, 0, 0, 0]


def f2_space() -> ExplicitSpace:
    space = ExplicitSpace(2, f2_table())
    space.certify()
    return space


def empty_violators_space(n: int = 6) -> ExplicitSpace:
    space = ExplicitSpace(n, [0] * (1 << n))
    space.certify()
    return space


def singleton_pattern_space(n: int = 5) -> ExplicitSpace:
    """V(G) = H \\ G: every subset is its own basis; dimension n."""
    full = full_mask(n)
    space = ExplicitSpace(n, [full & ~g for g in range(1 << n)])
    space.certify()
    return space


def interval_space(n: int = 12) -> ExplicitSpace:
    space = ExplicitSpace(n, interval_table(n))
    space.certify()
    return space

"""Bitmask subset helpers.

Subsets of a ground set {0, ..., n-1} are plain ints; bit j set means
element j is in the subset.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements(mask: int) -> list[int]:
    """The set bits of mask in ascending order, read off one binary string
    in O(width + k) time (peeling k bits off an n-bit int costs O(k n))."""
    bits = bin(mask)[:1:-1]
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of mask in descending numeric order, including mask and 0."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def iter_submasks_ascending(mask: int) -> Iterator[int]:
    """All submasks of mask in ascending numeric order, including 0 and mask."""
    t = 0
    while True:
        yield t
        if t == mask:
            return
        t = (t - mask) & mask


def interval_hull(family: Iterable[int]) -> tuple[int, int] | None:
    """(AND, OR) of a nonempty family of distinct masks if the family fills
    that interval of the subset lattice (it has 2^|OR minus AND| members), else None."""
    bottom, top, count = -1, 0, 0
    for c in family:
        bottom &= c
        top |= c
        count += 1
    if count != 1 << (top & ~bottom).bit_count():
        return None
    return bottom, top


def iter_size_k_submasks(mask: int, k: int) -> Iterator[int]:
    """Submasks of mask with exactly k bits, in ascending numeric order."""
    m = mask.bit_count()
    if k < 0 or k > m:
        return
    if k == 0:
        yield 0
        return
    positions = elements(mask)
    # Gosper's hack in the dense space, expanded back to the sparse positions.
    # Expansion is monotone, so numeric order is preserved.
    dense = (1 << k) - 1
    limit = 1 << m
    while dense < limit:
        out = 0
        d = dense
        while d:
            low = d & -d
            out |= 1 << positions[low.bit_length() - 1]
            d ^= low
        yield out
        c = dense & -dense
        r = dense + c
        dense = (((r ^ dense) >> 2) // c) | r


def iter_by_size_then_value(mask: int) -> Iterator[int]:
    """All submasks ordered by (popcount, numeric value) ascending."""
    for k in range(mask.bit_count() + 1):
        yield from iter_size_k_submasks(mask, k)

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vspace.subsets import (
    elements,
    full_mask,
    iter_by_size_then_value,
    iter_size_k_submasks,
    iter_submasks,
    iter_submasks_ascending,
    mask_of,
)

from conftest import compress, expand, peel_elements

masks = st.integers(min_value=0, max_value=(1 << 12) - 1)


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(3) == 0b111
    assert full_mask(10) == 1023


def test_mask_elements_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert elements(0b101001) == [0, 3, 5]
    assert elements(0) == []


# Masks up to 70,000 bits wide: dense (random bits below a random width)
# and sparse (a few random positions), plus the word boundaries at 2^63
# and 2^64 and the full and top-bit-only widest masks as fixed examples.
WIDTH = 70_000
wide_masks = st.one_of(
    masks,
    st.builds(lambda width, seed: random.Random(seed).getrandbits(width),
              st.integers(0, WIDTH), st.integers(0, 2**32)),
    st.lists(st.integers(0, WIDTH - 1), max_size=40).map(lambda es: sum(1 << e for e in set(es))),
)


@settings(max_examples=60, deadline=None)
@given(wide_masks)
@example(0)
@example(1 << 63)
@example(1 << 64)
@example((1 << 64) - 1)
@example((1 << 65) - 1 ^ 1 << 63)
@example(1 << WIDTH - 1)
@example(full_mask(WIDTH))
def test_elements_inverse(mask):
    out = elements(mask)
    assert out == peel_elements(mask)
    assert all(a < b for a, b in zip(out, out[1:]))
    assert mask_of(out) == mask


@given(st.integers(min_value=0, max_value=255))
def test_submask_iteration(mask):
    down = list(iter_submasks(mask))
    up = list(iter_submasks_ascending(mask))
    assert len(down) == 1 << mask.bit_count()
    assert down[0] == mask and down[-1] == 0
    assert up == sorted(down)
    assert all(s & mask == s for s in down)


@given(masks, masks)
def test_compress_expand_inverse(support, noise):
    dense = compress(noise, support)
    assert dense < 1 << support.bit_count()
    assert expand(dense, support) == noise & support
    assert compress(expand(dense, support), support) == dense


def test_compress_explicit():
    # support {1, 4, 5}: element 1 -> slot 0, 4 -> slot 1, 5 -> slot 2
    assert compress(0b110010, 0b110010) == 0b111
    assert compress(0b010010, 0b110010) == 0b011
    assert expand(0b101, 0b110010) == 0b100010


@pytest.mark.parametrize("n,k", [(0, 0), (4, 0), (4, 2), (6, 3), (6, 6)])
def test_size_k_full(n, k):
    got = list(iter_size_k_submasks(full_mask(n), k))
    want = sorted(mask_of(c) for c in itertools.combinations(range(n), k))
    assert got == want


@given(st.integers(min_value=0, max_value=(1 << 10) - 1), st.integers(0, 10))
def test_size_k_sparse(mask, k):
    got = list(iter_size_k_submasks(mask, k))
    want = sorted(mask_of(c) for c in itertools.combinations(elements(mask), k))
    assert got == want


@given(st.integers(min_value=0, max_value=(1 << 10) - 1))
def test_size_then_value_order(mask):
    seq = list(iter_by_size_then_value(mask))
    assert seq == sorted(seq, key=lambda b: (b.bit_count(), b))
    assert len(seq) == 1 << mask.bit_count()
    assert set(seq) == set(iter_submasks(mask))

"""The bitmask helpers round-trip: indices to mask and back, and masks
to a 0/1 matrix and back, at widths 1..4096 and with runs of up to 2048
indices (the size of the false-twin classes of Z4096's unit graph)."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unitgraphs.bits import (
    VertexSet,
    bits_to_masks,
    bools_to_mask,
    indices_mask,
    mask_indices,
    masks_to_bits,
)

MAX_WIDTH = 4096
MAX_RUN = 2048


@st.composite
def _masks(draw, width=None):
    """A mask of the given width (or a drawn one) with a drawn number of
    set bits, at most MAX_RUN, spread by a seeded sample."""
    if width is None:
        width = draw(st.integers(1, MAX_WIDTH))
    count = min(width, draw(st.sampled_from([0, 1, 2, 32, 33, 128, 129, width // 2, MAX_RUN])))
    seed = draw(st.integers(0, 2**32 - 1))
    return sum(1 << v for v in random.Random(seed).sample(range(width), count))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_masks())
@example(0)
@example(1)
@example(1 << (MAX_WIDTH - 1))
@example((1 << MAX_RUN) - 1)
@example(((1 << MAX_RUN) - 1) << (MAX_WIDTH - MAX_RUN))
@example(sum(1 << (2 * i) for i in range(MAX_RUN)))
def test_the_or_of_a_masks_indices_is_the_mask(mask):
    indices = mask_indices(mask)
    assert indices_mask(indices) == mask
    assert indices_mask(reversed(indices)) == mask


@st.composite
def _mask_rows(draw):
    width = draw(st.integers(1, MAX_WIDTH))
    rows = draw(st.integers(0, 4))
    return width, [draw(_masks(width)) for _ in range(rows)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_mask_rows())
@example((1, [0, 1]))
@example((8, [255, 128]))
@example((9, [256, 511]))
@example((MAX_WIDTH, [(1 << MAX_WIDTH) - 1, 0, 1 << (MAX_WIDTH - 1)]))
def test_unpacking_then_packing_is_the_identity(case):
    width, masks = case
    bits = masks_to_bits(masks, width)
    assert bits.shape == (len(masks), width) and bits.dtype == np.uint8
    assert bits_to_masks(bits) == masks
    for mask, row in zip(masks, bits):
        assert bools_to_mask(row.astype(bool)) == mask
        assert np.flatnonzero(row).tolist() == mask_indices(mask)


@pytest.mark.parametrize("index", [3, -1])
def test_from_indices_rejects_an_index_outside_the_universe(index):
    with pytest.raises(ValueError, match=f"index {index} outside universe of size 3"):
        VertexSet.from_indices([0, index], 3)


def test_from_indices_takes_any_iterable():
    assert VertexSet.from_indices(iter([2, 0]), 3) == VertexSet(0b101, 3)
    assert VertexSet.from_indices((), 0) == VertexSet(0, 0)

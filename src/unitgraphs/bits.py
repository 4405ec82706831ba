"""The bitmask format every module shares.

A set of indices 0..n-1 (ring elements, graph vertices, complex
vertices or facets) is the nonnegative int with exactly those bits set,
bit i for index i.  Graph rows, unit sets, faces and facet bitsets are
all such masks, and this module holds the helpers that convert them:

* ``mask_indices`` and ``indices_mask``, the set bits of a mask as an
  ascending list and back;
* ``masks_to_bits`` and ``bits_to_masks``, a list of masks as the rows of
  a 0/1 NumPy matrix and back, with ``bools_to_mask`` the one-row case;
* ``shift_mask``, the image of a mask under a shift (up, high, down),
  the form in which a ring's translations act on element sets;
* ``row_chunks``, the row slices of an n x n computation done a block
  at a time, and BITS_BLOCK, the 0/1 entries unpacked in one block;
* ``VertexSet``, a mask together with the size of its universe.

Indices stay below HARD_ORDER_CAP, the most elements a ring may have.
"""

from __future__ import annotations

import numpy as np

HARD_ORDER_CAP = 1 << 16
# Entries of a 0/1 matrix unpacked at a time: 1 MiB of uint8.
BITS_BLOCK = 1 << 20


def shift_mask(mask: int, shift: tuple[int, int, int]) -> int:
    """The image of a bitmask under a shift (up, high, down): its bits
    outside high move up by up places, those in high down by down."""
    up, high, down = shift
    moved = mask & high
    return ((mask ^ moved) << up) | (moved >> down)


# Set bits up to which mask_indices walks lowest bits one at a time; above
# it, unpacking the bytes with NumPy is faster.  Measured crossover on a
# 2-core x86-64 Xeon, CPython 3.11, NumPy 2.4: 24-32 set bits at widths
# 128-4096 (3 set bits in 4096: loop 1.4 us, NumPy 13 us; 2049 set bits:
# loop 717 us, NumPy 40 us).
_WALK_BITS = 32


def mask_indices(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    if mask.bit_count() > _WALK_BITS:
        raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return np.flatnonzero(bits).tolist()
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def indices_mask(indices) -> int:
    """The bitmask with the given nonnegative bits set; the inverse of
    mask_indices."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def masks_to_bits(masks, width: int) -> np.ndarray:
    """0/1 uint8 matrix whose row i holds bits 0..width-1 of masks[i]."""
    nbytes = (width + 7) // 8
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def bits_to_masks(bits: np.ndarray) -> list[int]:
    """One int per row of a 0/1 or bool matrix; the inverse of
    masks_to_bits."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def bools_to_mask(bools: np.ndarray) -> int:
    """The mask of a 0/1 or bool vector: bits_to_masks of one row."""
    return bits_to_masks(bools[None])[0]


def row_chunks(n: int, size: int) -> list[slice]:
    """Row slices of an n x n computation, about size elements each."""
    step = max(1, size // max(n, 1))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


class VertexSet:
    """Immutable set of element/vertex indices backed by an int bitmask."""

    __slots__ = ("mask", "universe")

    def __init__(self, mask: int, universe: int):
        if mask < 0 or mask >> universe:
            raise ValueError("mask has bits outside the universe")
        self.mask = mask
        self.universe = universe

    @classmethod
    def from_indices(cls, indices, universe: int) -> "VertexSet":
        indices = list(indices)
        for i in indices:
            if not 0 <= i < universe:
                raise ValueError(f"index {i} outside universe of size {universe}")
        return cls(indices_mask(indices), universe)

    def indices(self) -> list[int]:
        return mask_indices(self.mask)

    def bools(self) -> np.ndarray:
        """Membership as a bool array of length universe."""
        return masks_to_bits([self.mask], self.universe)[0].astype(bool)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.universe and (self.mask >> i) & 1 == 1

    def __iter__(self):
        return iter(self.indices())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.mask == other.mask
            and self.universe == other.universe
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.universe))

    def __repr__(self) -> str:
        ids = self.indices()
        shown = ", ".join(map(str, ids[:12])) + (", ..." if len(ids) > 12 else "")
        return f"VertexSet({{{shown}}}, universe={self.universe})"

"""Semisimple structure of R/J(R).

Finite semisimple rings are products of matrix rings over finite fields.
For the descriptors this toolkit realizes, ``descriptors.semisimple_blocks``
reads that product shape off the descriptor, and ``wedderburn_shape``
sorts it canonically.

``semisimple_form`` realizes the reduction explicitly.  It builds the
canonical block-product ring C and the bijection between R/J(R) and C
from the quotient's ``block_keys``: the images in C of its coset
representatives under ``rings.semisimple_images``, the map R -> C whose
kernel is the structural radical and whose fibres are the cosets.
The explicit map is what lets independent sets constructed inside C be
transported into the actual quotient ring and then lifted to R.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .descriptors import CACHE_SIZE, Block, Product, RingDescriptor, semisimple_blocks
from .rings import (
    HARD_ORDER_CAP,
    Ring,
    RingError,
    block_ring,
    build_ring,
    quotient_by_radical,
)


def wedderburn_shape(d: RingDescriptor) -> tuple[Block, ...]:
    """Canonically sorted block list of R/J(R): ascending field order,
    then block size."""
    return tuple(sorted(semisimple_blocks(d), key=lambda b: (b[1], b[0])))


class SemisimpleForm:
    """Explicit isomorphism R/J(R) -> canonical block product ring."""

    def __init__(self, ring: Ring):
        self.ring = ring
        self.blocks = semisimple_blocks(ring.descriptor)
        self.block_rings = tuple(block_ring(b) for b in self.blocks)
        if len(self.block_rings) == 1:
            self.canonical_ring = self.block_rings[0]
        else:
            self.canonical_ring = build_ring(
                Product(tuple(r.descriptor for r in self.block_rings)),
                order_cap=HARD_ORDER_CAP,
            )
        self.quotient = quotient_by_radical(ring)
        if self.canonical_ring.order != self.quotient.order:
            raise RingError(
                "semisimple form order mismatch: "
                f"{self.canonical_ring.order} vs {self.quotient.order}"
            )
        # the quotient's block keys are distinct canonical indices, and
        # there are as many as canonical elements: a permutation
        to_quot = np.empty(self.canonical_ring.order, dtype=np.int64)
        to_quot[self.quotient.block_keys] = np.arange(self.quotient.order)
        self.to_quotient = to_quot
        inv = np.empty_like(to_quot)
        inv[to_quot] = np.arange(len(to_quot))
        self.from_quotient = inv

    def encode_blocks(self, values):
        """Canonical index of block values (ints, or index arrays)."""
        if len(self.block_rings) == 1:
            return values[0]
        return self.canonical_ring.encode_components(values)

    def quotient_index(self, canonical_index: int) -> int:
        return int(self.to_quotient[canonical_index])

    def canonical_index(self, quotient_index: int) -> int:
        return int(self.from_quotient[quotient_index])


@lru_cache(maxsize=CACHE_SIZE)
def semisimple_form(ring: Ring) -> SemisimpleForm:
    return SemisimpleForm(ring)

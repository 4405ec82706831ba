"""Semisimple structure of R/J(R).

Finite semisimple rings are products of matrix rings over finite fields.
For the descriptors this toolkit realizes, ``descriptors.semisimple_blocks``
reads that product shape off the descriptor, and ``wedderburn_shape``
sorts it canonically; anything outside the closed forms is reported as
unsupported rather than guessed.

``semisimple_form`` realizes the reduction explicitly.  It builds the
canonical block-product ring C and the bijection between R/J(R) and C
from one call of ``rings.semisimple_images`` on the quotient's coset
representatives: the map R -> C whose kernel is the structural radical
and whose image, restricted to representatives, is the semisimple form.
The explicit map is what lets independent sets constructed inside C be
transported into the actual quotient ring and then lifted to R.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .descriptors import Block, Gf, Mat, Product, RingDescriptor, semisimple_blocks
from .rings import (
    HARD_ORDER_CAP,
    Ring,
    RingError,
    UnsupportedStructure,
    build_ring,
    quotient_by_radical,
    semisimple_images,
)


def wedderburn_shape(d: RingDescriptor) -> tuple[Block, ...] | None:
    """Canonically sorted block list of R/J(R) (ascending field order,
    then block size), or None when the symbolic rules do not apply."""
    blocks = semisimple_blocks(d)
    if blocks is None:
        return None
    return tuple(sorted(blocks, key=lambda b: (b[1], b[0])))


def block_ring(block: Block) -> Ring:
    # arithmetic cap: the canonical ring never exceeds the parent's order
    n, q = block
    return build_ring(Gf(q) if n == 1 else Mat(n, Gf(q)), order_cap=HARD_ORDER_CAP)


class SemisimpleForm:
    """Explicit isomorphism R/J(R) -> canonical block product ring."""

    def __init__(self, ring: Ring):
        blocks = semisimple_blocks(ring.descriptor)
        if blocks is None:
            raise UnsupportedStructure(
                f"{ring.expr}: R/J(R) has no symbolic semisimple form"
            )
        self.ring = ring
        self.blocks = blocks
        self.block_rings = tuple(block_ring(b) for b in blocks)
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
        images = semisimple_images(ring, self.quotient.representatives)
        to_quot = np.full(self.canonical_ring.order, -1, dtype=np.int64)
        to_quot[self.encode_blocks(images)] = np.arange(self.quotient.order)
        # the orders agree, so an unfilled slot means two cosets collided
        if (to_quot < 0).any():
            raise RingError("semisimple reduction is not injective")
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


@lru_cache(maxsize=None)
def semisimple_form(ring: Ring) -> SemisimpleForm:
    return SemisimpleForm(ring)

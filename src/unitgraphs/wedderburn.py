"""Semisimple structure of R/J(R).

Finite semisimple rings are products of matrix rings over finite fields.
For the descriptors this toolkit realizes, ``descriptors.semisimple_blocks``
reads that product shape off the descriptor, and ``wedderburn_shape``
sorts it canonically.

``semisimple_form`` names the reduction explicitly.  The quotient
``rings.QuotientRing`` is indexed by its image in the canonical block
product C under ``rings.semisimple_images`` (the map R -> C whose kernel
is the structural radical and whose fibres are the cosets), so an index
of C is already an index of R/J(R): independent sets constructed inside
C are quotient sets as they stand, ready to be lifted to R.
"""

from __future__ import annotations

from functools import lru_cache

from .descriptors import CACHE_SIZE, Block, RingDescriptor, semisimple_blocks
from .rings import Ring, block_ring, quotient_by_radical


def wedderburn_shape(d: RingDescriptor) -> tuple[Block, ...]:
    """Canonically sorted block list of R/J(R): ascending field order,
    then block size."""
    return tuple(sorted(semisimple_blocks(d), key=lambda b: (b[1], b[0])))


class SemisimpleForm:
    """R/J(R) as the canonical block product ring, block by block."""

    def __init__(self, ring: Ring):
        self.ring = ring
        self.blocks = semisimple_blocks(ring.descriptor)
        self.block_rings = tuple(block_ring(b) for b in self.blocks)
        self.quotient = quotient_by_radical(ring)
        self.canonical_ring = self.quotient.canonical_ring


@lru_cache(maxsize=CACHE_SIZE)
def semisimple_form(ring: Ring) -> SemisimpleForm:
    return SemisimpleForm(ring)

"""Semisimple structure of R/J(R).

Finite semisimple rings are products of matrix rings over finite fields.
For the descriptors this toolkit realizes, ``descriptors.semisimple_blocks``
reads that product shape off the descriptor, and ``wedderburn_shape``
sorts it canonically.  The shape is the one description of R/J(R): the
classifiers and ``classify.cross_validate`` read it without realizing
anything.

``semisimple_form`` names the reduction explicitly and returns the one
realization, ``rings.quotient_by_radical``.  That ``QuotientRing`` holds
the blocks and their rings and is indexed by its image in the canonical
block product C under ``rings.semisimple_images`` (the map R -> C whose
kernel is the structural radical and whose fibres are the cosets), so an
index of C is already an index of R/J(R): independent sets constructed
inside C are quotient sets as they stand, ready to be lifted to R.
"""

from __future__ import annotations

from .descriptors import Block, RingDescriptor, semisimple_blocks
from .rings import QuotientRing, Ring, quotient_by_radical


def wedderburn_shape(d: RingDescriptor) -> tuple[Block, ...]:
    """Canonically sorted block list of R/J(R): ascending field order,
    then block size."""
    return tuple(sorted(semisimple_blocks(d), key=lambda b: (b[1], b[0])))


def semisimple_form(ring: Ring) -> QuotientRing:
    """R/J(R) as the canonical block product ring, block by block: the
    interned ``quotient_by_radical(ring)``."""
    return quotient_by_radical(ring)

"""Semisimple structure of R/J(R).

Finite semisimple rings are products of matrix rings over finite fields.
For the descriptors this toolkit realizes, ``descriptors.semisimple_blocks``
reads that product shape off the descriptor, and ``wedderburn_shape``
sorts it canonically.  The shape is the one description of R/J(R): the
classifiers, ``classify.cross_validate`` and the ``info`` command read it
without realizing anything, the characteristic through
``shape_characteristic``.

``semisimple_form`` names the reduction explicitly and returns the one
realization, ``rings.quotient_by_radical``.  That ``QuotientRing`` is
the canonical block product C itself, a ``ProductRing`` whose
``factors`` are the realized blocks, and a coset is indexed by its image
under ``rings.semisimple_images`` (the map R -> C whose kernel is the
structural radical and whose fibres are the cosets): independent sets
constructed inside C are quotient sets as they stand, ready to be
lifted to R.
"""

from __future__ import annotations

import math

from .descriptors import Block, RingDescriptor, prime_power, semisimple_blocks
from .rings import QuotientRing, Ring, quotient_by_radical


def wedderburn_shape(d: RingDescriptor) -> tuple[Block, ...]:
    """Canonically sorted block list of R/J(R): ascending field order,
    then block size."""
    return tuple(sorted(semisimple_blocks(d), key=lambda b: (b[1], b[0])))


def shape_characteristic(shape: tuple[Block, ...]) -> int:
    """The characteristic of R/J(R): a product of matrix rings over fields
    GF(p^k) has characteristic the product of the distinct primes p."""
    return math.prod({prime_power(q)[0] for _, q in shape})


def semisimple_form(ring: Ring) -> QuotientRing:
    """R/J(R) as the canonical block product ring, block by block: the
    interned ``quotient_by_radical(ring)``."""
    return quotient_by_radical(ring)

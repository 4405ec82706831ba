"""Semisimple structure of R/J(R).

Finite semisimple rings are products of matrix rings over finite fields.
For the descriptors this toolkit realizes, that product shape is
computable by symbolic rewriting alone:

* GF(q)            -> one 1x1 block over GF(q),
* Z_n              -> one 1x1 block over GF(p) per prime p | n,
* M_k(base)        -> each base block (n, q) becomes (k*n, q),
* products         -> concatenation,
* GF(q)[G], G a p-group, char = p -> one 1x1 block over GF(q),

and anything else is reported as unsupported rather than guessed.

Beyond the shape, ``semisimple_form`` realizes the reduction explicitly:
it builds the canonical block-product ring C and the bijection between
elements of R/J(R) and elements of C (residues modulo each prime for
Z_n, entry-wise reduction plus block-matrix flattening for matrix rings,
the coefficient-sum map for supported group algebras).  The explicit map
is what lets independent sets constructed inside C be transported into
the actual quotient ring and then lifted to R.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .descriptors import (
    Gf,
    GroupAlgebra,
    Mat,
    Product,
    RingDescriptor,
    Zn,
    factorize,
    group_is_p_group,
)
from .rings import (
    GfRing,
    GroupAlgebraRing,
    MatRing,
    ProductRing,
    Ring,
    RingError,
    UnsupportedStructure,
    ZnRing,
    build_ring,
    quotient_by_radical,
)

Block = tuple[int, int]  # (matrix size n, field order q)


def semisimple_blocks(d: RingDescriptor) -> tuple[Block, ...] | None:
    """Blocks of R/J(R) in structural (descriptor) order, or None."""
    if isinstance(d, Zn):
        return tuple((1, p) for p, _ in factorize(d.n))
    if isinstance(d, Gf):
        return ((1, d.q),)
    if isinstance(d, Mat):
        base = semisimple_blocks(d.base)
        if base is None:
            return None
        return tuple((d.k * n, q) for n, q in base)
    if isinstance(d, Product):
        out: list[Block] = []
        for f in d.factors:
            fb = semisimple_blocks(f)
            if fb is None:
                return None
            out.extend(fb)
        return tuple(out)
    if isinstance(d, GroupAlgebra):
        p = factorize(d.q)[0][0]
        if group_is_p_group(d.group, p):
            return ((1, d.q),)
        return None
    return None


def wedderburn_shape(d: RingDescriptor) -> tuple[Block, ...] | None:
    """Canonically sorted block list of R/J(R) (ascending field order,
    then block size), or None when the symbolic rules do not apply."""
    blocks = semisimple_blocks(d)
    if blocks is None:
        return None
    return tuple(sorted(blocks, key=lambda b: (b[1], b[0])))


def block_ring(block: Block) -> Ring:
    # arithmetic cap: the canonical ring never exceeds the parent's order
    from .rings import HARD_ORDER_CAP

    n, q = block
    return build_ring(Gf(q) if n == 1 else Mat(n, Gf(q)), order_cap=HARD_ORDER_CAP)


def _block_as_matrix(ring: Ring, x: int) -> list[list[int]]:
    if isinstance(ring, MatRing):
        return ring.decode_entries(x)
    return [[x]]


def _block_from_matrix(ring: Ring, rows: list[list[int]]) -> int:
    if isinstance(ring, MatRing):
        return ring.encode_entries(rows)
    return rows[0][0]


def _reduce_to_blocks(ring: Ring, x: int) -> list[int]:
    """Image of a parent element under R -> R/J(R) = product of blocks,
    one block-ring element index per block, in structural order."""
    if isinstance(ring, ZnRing):
        return [x % p for p, _ in factorize(ring.order)]
    if isinstance(ring, GfRing):
        return [x]
    if isinstance(ring, ProductRing):
        out: list[int] = []
        for f, c in zip(ring.factors, ring.decode_components(x)):
            out.extend(_reduce_to_blocks(f, c))
        return out
    if isinstance(ring, MatRing):
        base = ring.base
        base_blocks = semisimple_blocks(base.descriptor)
        if base_blocks is None:
            raise UnsupportedStructure("matrix base has no semisimple form")
        k = ring.k
        entries = ring.decode_entries(x)
        entry_images = [[_reduce_to_blocks(base, e) for e in row] for row in entries]
        out = []
        for bi, (m, q) in enumerate(base_blocks):
            small_ring = block_ring((m, q))
            big = [[0] * (k * m) for _ in range(k * m)]
            for bigrow in range(k):
                for bigcol in range(k):
                    small = _block_as_matrix(small_ring, entry_images[bigrow][bigcol][bi])
                    for r in range(m):
                        for c in range(m):
                            big[bigrow * m + r][bigcol * m + c] = small[r][c]
            out.append(_block_from_matrix(block_ring((k * m, q)), big))
        return out
    if isinstance(ring, GroupAlgebraRing):
        p = ring.field.p
        if not group_is_p_group(ring.descriptor.group, p):
            raise UnsupportedStructure("group algebra outside the p-group case")
        return [int(ring.augmentation(x))]
    raise UnsupportedStructure(f"no semisimple reduction for {type(ring).__name__}")


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
            from .rings import HARD_ORDER_CAP

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
        to_quot = np.full(self.canonical_ring.order, -1, dtype=np.int64)
        for qi, rep in enumerate(self.quotient.representatives):
            ci = self.encode_blocks(_reduce_to_blocks(ring, rep))
            if to_quot[ci] >= 0:
                raise RingError("semisimple reduction is not injective")
            to_quot[ci] = qi
        self.to_quotient = to_quot
        inv = np.empty_like(to_quot)
        inv[to_quot] = np.arange(len(to_quot))
        self.from_quotient = inv

    def encode_blocks(self, values: list[int]) -> int:
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

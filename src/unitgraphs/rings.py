"""Realized finite rings with integer element indexing.

Every realized ring indexes its elements 0..order-1 with a deterministic
encoding, so element sets, graphs and reports are reproducible bit for
bit across runs:

* Zn            -- the residue itself,
* Gf(p^k)       -- little-endian base-p coefficient vector (see fields),
* Mat(k, base)  -- row-major base-|base| digits, entry (i, j) at digit
                   position i*k + j, first digit least significant,
* Product       -- mixed radix over the factors, factor 0 least
                   significant,
* GroupAlgebra  -- base-|F| digits of the coefficient vector, identity
                   element of the group first.

In every encoding the additive group is a direct sum of cyclic groups
acting digit-wise.  Scalar ``add``/``neg``/``mul`` are the definitional
operations that the tests compare everything else against.  Each ring
kind also has one elementwise, broadcasting kernel ``mul_many(xs, ys)``
on int64 index arrays, next to ``add_many``/``neg_many``, and all
vectorized work is built from these: GF(q) multiplies through the
log/antilog tables of ``fields``, matrix, product and group-algebra
rings call their base or factor kernels on decoded digits, and a
quotient calls its parent's kernel on coset representatives and
projects.

``mul_table`` is built from ``mul_many`` in row chunks and stored as
uint16 (indices stay below HARD_ORDER_CAP = 2^16).  It exists for every
ring up to DEFAULT_ORDER_CAP and feeds the definitional unit and radical
scans, which raise CapExceeded above that cap.  Unit sets come from
structure where it is known: the gcd for Zn, every nonzero element of
GF(q), componentwise for products, a nonzero augmentation for group
algebras of p-groups in characteristic p, and for matrices over a
commutative base a unit determinant (Lam, *A First Course in
Noncommutative Rings*), with the determinant computed through the base
kernels.  Every other ring takes the definitional scan.

``semisimple_images(ring, xs)`` is the one elementwise map R -> R/J(R)
= B_1 x ... x B_t (blocks as in ``descriptors.semisimple_blocks``).  The
structural Jacobson radical is its kernel, and ``wedderburn`` builds the
semisimple form from its image on coset representatives; the
definitional radical scan stays as the reference, and as the fallback
where the map has no closed form.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

import numpy as np

from .descriptors import (
    DescriptorError,
    Gf,
    GroupAlgebra,
    Mat,
    Product,
    RingDescriptor,
    Zn,
    descriptor_expr,
    descriptor_order,
    factorize,
    group_is_p_group,
    group_mul_table,
    group_order,
    is_commutative,
    is_prime,
    semisimple_blocks,
    validate_descriptor,
)
from .fields import GfField

DEFAULT_ORDER_CAP = 4096
HARD_ORDER_CAP = 1 << 16
# Elements per vectorized chunk.  Its int64 temporaries (64 KiB) stay
# below glibc's default 128 KiB mmap threshold, so chunk after chunk
# reuses heap pages instead of mapping and faulting in fresh ones.
CHUNK = 1 << 13


class RingError(Exception):
    """Arithmetic-level failure (inconsistent inverses, bad element index)."""


class CapExceeded(RingError):
    """A configured size cap was exceeded."""


class UnsupportedStructure(RingError):
    """A structural closed form does not apply to this descriptor."""


def mask_indices(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
        mask = 0
        for i in indices:
            if not 0 <= i < universe:
                raise ValueError(f"index {i} outside universe of size {universe}")
            mask |= 1 << i
        return cls(mask, universe)

    def indices(self) -> list[int]:
        return mask_indices(self.mask)

    def bools(self) -> np.ndarray:
        """Membership as a bool array of length universe."""
        raw = self.mask.to_bytes((self.universe + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return bits[: self.universe].astype(bool)

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


# ---------------------------------------------------------------------------
# base classes
# ---------------------------------------------------------------------------

class Ring:
    """Common interface of all realized rings.

    Instances are immutable after construction and safe to share between
    concurrent workers.
    """

    descriptor: RingDescriptor
    order: int
    zero: int = 0
    one: int

    # -- scalar arithmetic (definitional) -----------------------------------

    def add(self, x: int, y: int) -> int:
        raise NotImplementedError

    def neg(self, x: int) -> int:
        raise NotImplementedError

    def mul(self, x: int, y: int) -> int:
        raise NotImplementedError

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    # -- kernels: elementwise and broadcasting over int64 index arrays ------

    def add_many(self, xs, ys) -> np.ndarray:
        raise NotImplementedError

    def neg_many(self, xs) -> np.ndarray:
        raise NotImplementedError

    def mul_many(self, xs, ys) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def mul_table(self) -> np.ndarray:
        """Full multiplication table (uint16), up to DEFAULT_ORDER_CAP."""
        n = self.order
        if n > DEFAULT_ORDER_CAP:
            raise CapExceeded(
                f"{self.expr}: no multiplication table above {DEFAULT_ORDER_CAP} elements"
            )
        idx = np.arange(n)
        table = np.empty((n, n), dtype=np.uint16)
        for rows in _row_chunks(n):
            table[rows] = self.mul_many(idx[rows, None], idx)
        return table

    # -- units ---------------------------------------------------------------

    @cached_property
    def unit_set(self) -> VertexSet:
        return VertexSet(self._compute_units(), self.order)

    def is_unit(self, x: int) -> bool:
        if not 0 <= x < self.order:
            raise RingError(f"element index {x} out of range")
        return (self.unit_set.mask >> x) & 1 == 1

    def _compute_units(self) -> int:
        return self._units_generic()

    def _units_generic(self) -> int:
        """Two-sided inverse search straight from the definition."""
        right = self.mul_table == self.one
        # in a finite ring a one-sided inverse is two-sided; anything else
        # signals an arithmetic bug
        if not np.array_equal(right, right.T):
            raise RingError("one-sided inverse found; arithmetic is inconsistent")
        return _bools_to_mask(right.any(axis=1))

    # -- misc ----------------------------------------------------------------

    @cached_property
    def characteristic(self) -> int:
        acc = self.one
        k = 1
        while acc != self.zero:
            acc = self.add(acc, self.one)
            k += 1
            if k > self.order + 1:
                raise RingError("additive order of 1 exceeds ring order")
        return k

    def field_view(self) -> GfField | None:
        """Scalar field arithmetic if this ring is canonically a field."""
        return None

    @property
    def expr(self) -> str:
        return descriptor_expr(self.descriptor)

    def element_repr(self, x: int) -> str:
        return str(x)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.expr} order={self.order}>"


class PositionalRing(Ring):
    """Ring whose addition is digit-wise in its canonical encoding."""

    _moduli: tuple[int, ...]

    def _init_positional(self, moduli) -> None:
        self._moduli = tuple(int(m) for m in moduli)
        places = []
        acc = 1
        for m in self._moduli:
            places.append(acc)
            acc *= m
        self._places = tuple(places)
        self._binary = set(self._moduli) == {2}

    def add(self, x: int, y: int) -> int:
        out = 0
        for pl, m in zip(self._places, self._moduli):
            out += ((x // pl + y // pl) % m) * pl
        return out

    def neg(self, x: int) -> int:
        out = 0
        for pl, m in zip(self._places, self._moduli):
            out += (-(x // pl) % m) * pl
        return out

    # one digit at a time, so temporaries stay the size of the operands;
    # when every digit is binary, addition is XOR and negation the identity
    def add_many(self, xs, ys) -> np.ndarray:
        if self._binary:
            return xs ^ ys
        out = 0
        for pl, m in zip(self._places, self._moduli):
            out = out + (xs // pl + ys // pl) % m * pl
        return out

    def neg_many(self, xs) -> np.ndarray:
        if self._binary:
            return xs
        out = 0
        for pl, m in zip(self._places, self._moduli):
            out = out + -(xs // pl) % m * pl
        return out


# ---------------------------------------------------------------------------
# concrete ring kinds
# ---------------------------------------------------------------------------

class ZnRing(PositionalRing):
    def __init__(self, descriptor: Zn):
        self.descriptor = descriptor
        self.order = descriptor.n
        self.one = 1
        self._init_positional([descriptor.n])

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.order

    def neg(self, x: int) -> int:
        return -x % self.order

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.order

    def mul_many(self, xs, ys) -> np.ndarray:
        return xs * ys % self.order

    def _compute_units(self) -> int:
        n = self.order
        coprime = np.gcd(np.arange(n), n) == 1
        return _bools_to_mask(coprime)

    def field_view(self) -> GfField | None:
        return GfField(self.order) if is_prime(self.order) else None


class GfRing(PositionalRing):
    def __init__(self, descriptor: Gf):
        self.descriptor = descriptor
        self.field = GfField(descriptor.q)
        self.order = descriptor.q
        self.one = 1
        self._init_positional([self.field.p] * self.field.k)

    def mul(self, x: int, y: int) -> int:
        return self.field.mul(x, y)

    def mul_many(self, xs, ys) -> np.ndarray:
        return self.field.mul_many(xs, ys)

    def inv(self, x: int) -> int:
        return self.field.inv(x)

    def _compute_units(self) -> int:
        return ((1 << self.order) - 1) & ~1

    def field_view(self) -> GfField:
        return self.field

    def element_repr(self, x: int) -> str:
        if self.field.k == 1:
            return str(x)
        coeffs = self.field.decode(x)
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}g" if i == 1 else f"{head}g^{i}")
        return "+".join(terms) if terms else "0"


class MatRing(PositionalRing):
    def __init__(self, descriptor: Mat, base: Ring):
        self.descriptor = descriptor
        self.base = base
        self.k = descriptor.k
        self.order = base.order ** (self.k * self.k)
        moduli = []
        for _ in range(self.k * self.k):
            moduli.extend(base._moduli if isinstance(base, PositionalRing) else [base.order])
        self._init_positional(moduli)
        ident = [[base.one if i == j else base.zero for j in range(self.k)]
                 for i in range(self.k)]
        self.one = self.encode_entries(ident)

    # entries are row-major little-endian digits in base |base|
    def decode_entries(self, x):
        """Entry rows of an element, or of each element of an index array."""
        b, k = self.base.order, self.k
        return [[x // b ** (i * k + j) % b for j in range(k)] for i in range(k)]

    def encode_entries(self, rows) -> int:
        b = self.base.order
        x = 0
        flat = [rows[i][j] for i in range(self.k) for j in range(self.k)]
        for e in reversed(flat):
            x = x * b + e
        return x

    def mul(self, x: int, y: int) -> int:
        a = self.decode_entries(x)
        b = self.decode_entries(y)
        base = self.base
        k = self.k
        out = []
        for i in range(k):
            row = []
            for j in range(k):
                acc = base.zero
                for l in range(k):
                    acc = base.add(acc, base.mul(a[i][l], b[l][j]))
                row.append(acc)
            out.append(row)
        return self.encode_entries(out)

    def mul_many(self, xs, ys) -> np.ndarray:
        a, c = self.decode_entries(xs), self.decode_entries(ys)
        base, k = self.base, self.k
        out = 0
        for i in range(k):
            for j in range(k):
                acc = base.mul_many(a[i][0], c[0][j])
                for l in range(1, k):
                    acc = base.add_many(acc, base.mul_many(a[i][l], c[l][j]))
                out = out + acc * base.order ** (i * k + j)
        return out

    def det_many(self, xs) -> np.ndarray:
        """Leibniz determinant through the base kernels; meaningful only
        over a commutative base."""
        a = self.decode_entries(xs)
        base, k = self.base, self.k
        det = 0
        for perm in itertools.permutations(range(k)):
            term = a[0][perm[0]]
            for i in range(1, k):
                term = base.mul_many(term, a[i][perm[i]])
            inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
            if inversions % 2:
                term = base.neg_many(term)
            det = base.add_many(det, term)
        return det

    def _compute_units(self) -> int:
        if not is_commutative(self.base.descriptor):
            return self._units_generic()
        # over a commutative base a matrix is a unit iff its determinant is
        det = self.det_many(np.arange(self.order))
        return _bools_to_mask(self.base.unit_set.bools()[det])

    def element_repr(self, x: int) -> str:
        rows = self.decode_entries(x)
        body = "; ".join(
            " ".join(self.base.element_repr(e) for e in row) for row in rows
        )
        return f"[{body}]"


class ProductRing(PositionalRing):
    def __init__(self, descriptor: Product, factors: list[Ring]):
        self.descriptor = descriptor
        self.factors = tuple(factors)
        self.order = 1
        strides = []
        for f in factors:
            strides.append(self.order)
            self.order *= f.order
        self._strides = tuple(strides)
        moduli = []
        for f in factors:
            moduli.extend(f._moduli if isinstance(f, PositionalRing) else [f.order])
        self._init_positional(moduli)
        self.one = self.encode_components([f.one for f in factors])

    def decode_components(self, x):
        """Factor components of an element, or of each element of an array."""
        return [x // s % f.order for s, f in zip(self._strides, self.factors)]

    def encode_components(self, comps) -> int:
        x = 0
        for c, s in zip(comps, self._strides):
            x += c * s
        return x

    def mul(self, x: int, y: int) -> int:
        return self.encode_components(
            [
                f.mul(a, b)
                for f, a, b in zip(
                    self.factors, self.decode_components(x), self.decode_components(y)
                )
            ]
        )

    def mul_many(self, xs, ys) -> np.ndarray:
        return self.encode_components(
            [
                f.mul_many(a, b)
                for f, a, b in zip(
                    self.factors, self.decode_components(xs), self.decode_components(ys)
                )
            ]
        )

    def _compute_units(self) -> int:
        ok = True
        comps = self.decode_components(np.arange(self.order))
        for f, c in zip(self.factors, comps):
            ok = ok & f.unit_set.bools()[c]
        return _bools_to_mask(ok)

    def element_repr(self, x: int) -> str:
        parts = [
            f.element_repr(c) for f, c in zip(self.factors, self.decode_components(x))
        ]
        return "(" + ", ".join(parts) + ")"


class GroupAlgebraRing(PositionalRing):
    def __init__(self, descriptor: GroupAlgebra, coeffs: GfRing):
        self.descriptor = descriptor
        self.coeffs = coeffs  # the coefficient field as a ring, for its kernels
        self.field = coeffs.field
        self.gorder = group_order(descriptor.group)
        self.gtable = group_mul_table(descriptor.group)
        self.order = descriptor.q ** self.gorder
        self._init_positional([self.field.p] * self.field.k * self.gorder)
        self.one = 1  # coefficient 1 on the group identity
        # the (g, h) with g*h = t, for each group element t
        self._terms = [
            [(g, h) for g in range(self.gorder) for h in range(self.gorder)
             if self.gtable[g][h] == t]
            for t in range(self.gorder)
        ]

    def decode_coeffs(self, x):
        """Coefficient vector of an element, or of each element of an array."""
        q = self.field.q
        return [x // q**g % q for g in range(self.gorder)]

    def encode_coeffs(self, coeffs) -> int:
        q = self.field.q
        x = 0
        for c in reversed(list(coeffs)):
            x = x * q + c
        return x

    def mul(self, x: int, y: int) -> int:
        a = self.decode_coeffs(x)
        b = self.decode_coeffs(y)
        fld = self.field
        out = [0] * self.gorder
        for g, ag in enumerate(a):
            if ag == 0:
                continue
            row = self.gtable[g]
            for h, bh in enumerate(b):
                if bh == 0:
                    continue
                t = row[h]
                out[t] = fld.add(out[t], fld.mul(ag, bh))
        return self.encode_coeffs(out)

    def mul_many(self, xs, ys) -> np.ndarray:
        a, b = self.decode_coeffs(xs), self.decode_coeffs(ys)
        f, q = self.coeffs, self.field.q
        out = 0
        for t, pairs in enumerate(self._terms):
            acc = 0
            for g, h in pairs:
                acc = f.add_many(acc, f.mul_many(a[g], b[h]))
            out = out + acc * q**t
        return out

    def augmentation(self, xs):
        """Coefficient sum, the map GF(q)[G] -> GF(q); elementwise on arrays."""
        acc = 0
        for c in self.decode_coeffs(xs):
            acc = self.coeffs.add_many(acc, c)
        return acc

    def _compute_units(self) -> int:
        if not group_is_p_group(self.descriptor.group, self.field.p):
            return self._units_generic()
        # a p-group algebra in characteristic p is local, with the
        # augmentation ideal as its radical
        return _bools_to_mask(self.augmentation(np.arange(self.order)) != 0)

    def element_repr(self, x: int) -> str:
        names = self._element_names()
        terms = []
        for g, c in enumerate(self.decode_coeffs(x)):
            if c == 0:
                continue
            coef = "" if c == 1 else f"{c}*"
            terms.append(f"{coef}{names[g]}" if g else str(c) if c != 1 else "1")
        return "+".join(terms) if terms else "0"

    def _element_names(self) -> list[str]:
        from .descriptors import Cn

        n = self.gorder
        if isinstance(self.descriptor.group, Cn):
            return ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
        names = ["e", "a", "a^2", "a^3", "b", "ab", "a^2b", "a^3b"]
        return names[:n]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_ring_cached(descriptor: RingDescriptor) -> Ring:
    if isinstance(descriptor, Zn):
        return ZnRing(descriptor)
    if isinstance(descriptor, Gf):
        return GfRing(descriptor)
    if isinstance(descriptor, Mat):
        return MatRing(descriptor, _build_ring_cached(descriptor.base))
    if isinstance(descriptor, Product):
        return ProductRing(
            descriptor, [_build_ring_cached(f) for f in descriptor.factors]
        )
    if isinstance(descriptor, GroupAlgebra):
        return GroupAlgebraRing(descriptor, _build_ring_cached(Gf(descriptor.q)))
    raise DescriptorError(f"unknown descriptor {descriptor!r}")


def build_ring(descriptor: RingDescriptor, order_cap: int = DEFAULT_ORDER_CAP) -> Ring:
    """Realize a descriptor as an arithmetic object.

    order_cap guards against accidentally huge realizations; arithmetic
    is supported up to 2^16 elements, graph construction has its own
    (smaller) cap.
    """
    validate_descriptor(descriptor)
    cap = min(order_cap, HARD_ORDER_CAP)
    if descriptor_order(descriptor, cap) > cap:
        raise CapExceeded(
            f"{descriptor_expr(descriptor)} has more elements than the cap {cap}"
        )
    return _build_ring_cached(descriptor)


def _row_chunks(n: int) -> list[slice]:
    """Row slices of an n x n computation, about CHUNK elements each."""
    step = max(1, CHUNK // n)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


# ---------------------------------------------------------------------------
# Jacobson radical and quotient
# ---------------------------------------------------------------------------

def jacobson_radical(ring: Ring, method: str = "auto") -> VertexSet:
    """Jacobson radical as an element set.

    method="generic" scans for {x : 1 - r*x is a unit for every r}, which
    is the definition specialized to finite rings.  method="structural"
    takes the kernel of ``semisimple_images`` and raises
    UnsupportedStructure where that map has no closed form.
    method="auto" tries structural and falls back to generic.
    """
    if method == "generic":
        return VertexSet(_radical_generic(ring), ring.order)
    if method == "structural":
        return VertexSet(_radical_structural(ring), ring.order)
    if method == "auto":
        try:
            return VertexSet(_radical_structural(ring), ring.order)
        except UnsupportedStructure:
            return VertexSet(_radical_generic(ring), ring.order)
    raise ValueError(f"unknown radical method {method!r}")


def _radical_structural(ring: Ring) -> int:
    """J(R) as the kernel of R -> R/J(R): the elements whose block images
    are all zero."""
    images = semisimple_images(ring, np.arange(ring.order))
    return _bools_to_mask(np.logical_and.reduce([image == 0 for image in images]))


def _radical_generic(ring: Ring) -> int:
    table = ring.mul_table
    units = ring.unit_set.bools()
    ok = np.ones(ring.order, dtype=bool)
    for rows in _row_chunks(ring.order):
        products = table[rows].astype(np.int64)  # r * x for r in rows, every x
        ok &= units[ring.add_many(ring.one, ring.neg_many(products))].all(axis=0)
    return _bools_to_mask(ok)


def semisimple_images(ring: Ring, xs) -> list[np.ndarray]:
    """Images of elements under R -> R/J(R) = B_1 x ... x B_t, elementwise
    on an index array: one array of block-ring indices per block of
    ``semisimple_blocks``, where block (n, q) is realized as GF(q) for
    n = 1 and as M_n(GF(q)) otherwise.  Raises UnsupportedStructure where
    R/J(R) has no closed form."""
    xs = np.asarray(xs, dtype=np.int64)
    if isinstance(ring, ZnRing):
        return [xs % p for p, _ in factorize(ring.order)]
    if isinstance(ring, GfRing):
        return [xs]
    if isinstance(ring, ProductRing):
        return [
            image
            for f, c in zip(ring.factors, ring.decode_components(xs))
            for image in semisimple_images(f, c)
        ]
    if isinstance(ring, GroupAlgebraRing):
        if not group_is_p_group(ring.descriptor.group, ring.field.p):
            raise UnsupportedStructure(
                "R/J(R) of a group algebra has a closed form only for a "
                "p-group in characteristic p"
            )
        return [ring.augmentation(xs)]
    if not isinstance(ring, MatRing):
        raise UnsupportedStructure(f"no semisimple images for {type(ring).__name__}")
    # entry (i, j) maps into every base block; block b's m x m piece of it
    # lands at rows i*m.., columns j*m.. of a km x km matrix over GF(q)
    k = ring.k
    entries = [
        semisimple_images(ring.base, e) for row in ring.decode_entries(xs) for e in row
    ]
    out = []
    for b, (m, q) in enumerate(semisimple_blocks(ring.base.descriptor)):
        big = 0
        for i, j, r, c in itertools.product(range(k), range(k), range(m), range(m)):
            digit = entries[i * k + j][b] // q ** (r * m + c) % q
            big = big + digit * q ** ((i * m + r) * k * m + j * m + c)
        out.append(big)
    return out


class QuotientRing(Ring):
    """The quotient of a ring by its Jacobson radical.

    Elements are indexed 0..m-1 in increasing order of their canonical
    coset representative (the smallest parent index in the coset), and
    ``representatives[i]`` maps back to the parent.  The unit set is
    computed by inverse search inside the quotient, independently of the
    parent, so the unit correspondence stays a testable fact.
    """

    def __init__(self, parent: Ring, radical: VertexSet):
        self.parent = parent
        self.descriptor = parent.descriptor
        self.radical = radical
        rad_indices = np.array(radical.indices(), dtype=np.int64)
        n = parent.order
        rep_of = np.full(n, -1, dtype=np.int64)
        reps: list[int] = []
        for x in range(n):
            if rep_of[x] >= 0:
                continue
            reps.append(x)
            rep_of[parent.add_many(x, rad_indices)] = x
        self.representatives = tuple(reps)
        self.order = len(reps)
        if self.order * len(rad_indices) != n:
            raise RingError("radical cosets do not partition the ring")
        self._reps = np.array(reps, dtype=np.int64)
        self._index_of = np.searchsorted(self._reps, rep_of)  # parent -> quotient
        self.one = self.project(parent.one)

    def project(self, parent_index: int) -> int:
        """Quotient index of the coset containing a parent element."""
        return int(self._index_of[parent_index])

    def add(self, x: int, y: int) -> int:
        return self.project(
            self.parent.add(self.representatives[x], self.representatives[y])
        )

    def neg(self, x: int) -> int:
        return self.project(self.parent.neg(self.representatives[x]))

    def mul(self, x: int, y: int) -> int:
        return self.project(
            self.parent.mul(self.representatives[x], self.representatives[y])
        )

    def add_many(self, xs, ys) -> np.ndarray:
        return self._index_of[self.parent.add_many(self._reps[xs], self._reps[ys])]

    def neg_many(self, xs) -> np.ndarray:
        return self._index_of[self.parent.neg_many(self._reps[xs])]

    def mul_many(self, xs, ys) -> np.ndarray:
        return self._index_of[self.parent.mul_many(self._reps[xs], self._reps[ys])]

    @property
    def expr(self) -> str:
        return f"({descriptor_expr(self.descriptor)})/J"

    def element_repr(self, x: int) -> str:
        return self.parent.element_repr(self.representatives[x]) + "~"


@lru_cache(maxsize=None)
def quotient_by_radical(ring: Ring) -> QuotientRing:
    """Quotient of a ring by its Jacobson radical; interned per ring so
    repeated lifts share one quotient (and one cached quotient graph)."""
    return QuotientRing(ring, jacobson_radical(ring))


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def is_boolean_ring(ring: Ring) -> bool:
    """True iff every element is idempotent (finite case: ring = Z_2^k)."""
    idx = np.arange(ring.order)
    return bool(np.array_equal(ring.mul_many(idx, idx), idx))


def is_field(ring: Ring) -> bool:
    """True iff every nonzero element is a unit and multiplication commutes."""
    if len(ring.unit_set) != ring.order - 1:
        return False
    table = ring.mul_table
    return bool(np.array_equal(table, table.T))


def _bools_to_mask(arr: np.ndarray) -> int:
    packed = np.packbits(arr.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")

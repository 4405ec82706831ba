"""Realized finite rings with integer element indexing.

Every realized ring indexes its elements 0..order-1 with a deterministic
encoding, so element sets, graphs and reports are reproducible bit for
bit across runs:

* Zn            -- the residue itself,
* Gf(p^k)       -- little-endian base-p coefficient vector (see fields).

A composite index is the mixed radix of its parts, part 0 least
significant (``Ring.parts`` / ``Ring.from_parts``): entry (i, j) of a
k x k matrix is part i*k + j, factor i of a product part i, the
coefficient of group element g (identity first) part g of a group
algebra, and block i of R/J(R) = B_1 x ... x B_t (``semisimple_blocks``,
see QuotientRing) part i.

In every encoding the additive group is a direct sum of cyclic groups
acting digit-wise, so ``Ring`` itself holds the scalar ``add``/``neg``
and the elementwise ``add_many``/``neg_many``.  Each ring kind states
its product once, as a broadcasting kernel ``mul_many(xs, ys)`` on
int64 index arrays, and ``Ring.mul`` is that kernel on one pair; the
scalar operations refuse an index outside the ring.  GF(q), realized
once as ``GfRing``, multiplies through its own log/antilog tables,
matrix, product and group-algebra rings call their base or factor
kernels on their parts, and R/J(R) is the product of its blocks.  The
antilog table is a walk through the powers of a generator: multiplying
by it is GF(p)-linear on the digits, so one k x k digit matrix maps
every index to its next power at once, and the polynomial product is
called only to find the generator and that matrix.

``translates(S)`` lists the bitmask of x + S for every element x, which
is all the graphs need (see ``graphs``).  It is built from the digits:
adding the element whose digit j is 1 and the others 0, at place p and
modulus m, maps S to ``((S & low) << p) | ((S & high) >> (m - 1) *
p)``, where ``high`` marks the indices whose digit j is m - 1 and
``low = full ^ high`` the others (``place_translations`` lists these
shifts, one per digit).  Once digits 0..j-1 are done the list holds the
translates by 0..p_j - 1, and digit j appends m_j - 1 shifted copies of
its last p_j entries, so each row costs a few big-int operations.

Masks stay nonnegative throughout: CPython's ``&`` with a negative
operand such as ``~high`` first copies and complements it, one more
allocation and pass over every 4096-bit row.  The mask format and its
helpers (``VertexSet``, ``shift_mask``, the set-bit walk) live in
``bits``.

``semisimple_images(ring, xs)`` is the one elementwise map R -> R/J(R)
= B_1 x ... x B_t (blocks as in ``descriptors.semisimple_blocks``); for
GF(q)[C_n] it sends g to a root of x^m - 1 in GF(q^d), one block per
q-cyclotomic coset of Z/m.  Everything structural derives from it: the
Jacobson radical is its kernel, the quotient's cosets are its fibres
and are indexed by its image, and x is a unit iff every block image is
a unit of its block (Lam, *A First Course in Noncommutative Rings*).
A ring maps all of its elements once: ``block_images`` is that table,
and the units, the radical (cached as ``radical_mask``) and the
quotient's indexing all read it.
The leaves of that rule are GF(q) (nonzero) and matrices over a field
(nonzero determinant, computed through the base kernels).  No ring
builds a multiplication table; the definitional unit and radical scans
that check these results are test oracles, outside the package.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

import numpy as np

from .bits import HARD_ORDER_CAP, VertexSet, bools_to_mask
from .descriptors import (
    CACHE_SIZE,
    Block,
    CapExceeded,
    Cn,
    DescriptorError,
    Gf,
    GroupAlgebra,
    Mat,
    Product,
    RingDescriptor,
    RingError,
    Zn,
    cyclotomic_cosets,
    descriptor_expr,
    descriptor_order,
    factorize,
    group_mul_table,
    group_order,
    prime_power,
    semisimple_blocks,
)
from .fields import mul_mod, smallest_irreducible

DEFAULT_ORDER_CAP = 4096


class UnsupportedStructure(RingError):
    """A structural closed form does not apply to this descriptor."""


# ---------------------------------------------------------------------------
# base classes
# ---------------------------------------------------------------------------

class Ring:
    """Common interface of all realized rings.

    Addition is digit-wise in the ring's encoding, one cyclic digit of
    modulus ``_moduli[j]`` at place ``_places[j]``; each kind supplies
    its own ``mul_many``, and ``mul`` is that kernel on one pair.  A
    composite ring (``_init_parts``) is indexed by the mixed radix of its
    parts over ``_radices``, and the parts' digits, in order, are its
    digits.  Instances are immutable after construction and safe to
    share between concurrent workers.
    """

    descriptor: RingDescriptor
    order: int
    zero: int = 0
    one: int
    _moduli: tuple[int, ...]
    _radices: tuple[int, ...] = ()

    def _init_positional(self, moduli) -> None:
        self._moduli = tuple(int(m) for m in moduli)
        places = []
        acc = 1
        for m in self._moduli:
            places.append(acc)
            acc *= m
        self._places = tuple(places)
        self._binary = set(self._moduli) == {2}

    def _init_parts(self, rings) -> None:
        """Index the ring by the mixed radix of its parts, part i an
        element of rings[i]."""
        self._radices = tuple(r.order for r in rings)
        self.order = math.prod(self._radices)
        self._init_positional([m for r in rings for m in r._moduli])

    # -- the parts of a composite element -----------------------------------

    def parts(self, x) -> list:
        """The parts of an element, or of each element of an int64 index
        array, part 0 first."""
        if not self._radices:
            raise RingError(f"{self.expr} has no parts")
        out = []
        for r in self._radices:
            out.append(x % r)
            x = x // r
        return out

    def from_parts(self, parts):
        """The element (or index array) with the given parts."""
        x = 0
        for part, r in zip(reversed(parts), reversed(self._radices), strict=True):
            x = x * r + part
        return x

    # -- scalar arithmetic ---------------------------------------------------

    def _element(self, x: int) -> int:
        if not 0 <= x < self.order:
            raise RingError(f"element index {x} out of range")
        return x

    def add(self, x: int, y: int) -> int:
        x, y = self._element(x), self._element(y)
        out = 0
        for pl, m in zip(self._places, self._moduli):
            out += ((x // pl + y // pl) % m) * pl
        return out

    def neg(self, x: int) -> int:
        x = self._element(x)
        out = 0
        for pl, m in zip(self._places, self._moduli):
            out += (-(x // pl) % m) * pl
        return out

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_many(self._element(x), self._element(y)))

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    # -- kernels: elementwise and broadcasting over int64 index arrays ------

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

    # adding the element of index p (digit j one, the rest zero) moves each
    # index up by p, except where digit j is m - 1 and wraps down to 0
    @cached_property
    def place_translations(self) -> tuple[tuple[int, int, int], ...]:
        """Per digit j, the translation by the element whose digit j is 1 and
        the others 0, as (up, high, down): it maps a bitmask S to
        ``bits.shift_mask(S, (up, high, down))``."""
        out = []
        for p, m in zip(self._places, self._moduli):
            back = p * (m - 1)
            # one block of p ones at the top of every period of p * m indices
            repeats = ((1 << self.order) - 1) // ((1 << (p * m)) - 1)
            out.append((p, (((1 << p) - 1) << back) * repeats, back))
        return tuple(out)

    # the rows for x < p are known before digit j, and each further value of
    # that digit shifts the previous p rows once more
    def translates(self, mask: int) -> list[int]:
        """The bitmask of x + S for every element x in index order, S given
        as a bitmask."""
        out = [mask]
        full = (1 << self.order) - 1
        for up, high, down in self.place_translations:
            low = full ^ high
            for i in range(down):
                s = out[i]
                out.append(((s & low) << up) | ((s & high) >> down))
        return out

    # -- units ---------------------------------------------------------------

    @cached_property
    def unit_set(self) -> VertexSet:
        return VertexSet(self._compute_units(), self.order)

    @cached_property
    def unit_translates(self) -> list[int]:
        """``translates`` of the unit set: the bitmask of x + U for every
        element x, shared by both graph kinds."""
        return self.translates(self.unit_set.mask)

    def is_unit(self, x: int) -> bool:
        return (self.unit_set.mask >> self._element(x)) & 1 == 1

    @cached_property
    def block_images(self) -> list[np.ndarray]:
        """``semisimple_images`` of every element: the one table of the map
        R -> R/J(R) that the units, the radical and the quotient read."""
        return semisimple_images(self, np.arange(self.order))

    @cached_property
    def radical_mask(self) -> int:
        """The structural Jacobson radical as a bitmask."""
        return _radical_structural(self)

    def _compute_units(self) -> int:
        # x is a unit iff its image in every block of R/J(R) is a unit there
        ok = True
        images = self.block_images
        for block, image in zip(semisimple_blocks(self.descriptor), images):
            ok = ok & block_ring(block).unit_set.bools()[image]
        return bools_to_mask(ok)

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

    @property
    def expr(self) -> str:
        return descriptor_expr(self.descriptor)

    def element_repr(self, x: int) -> str:
        return str(x)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.expr} order={self.order}>"


# ---------------------------------------------------------------------------
# concrete ring kinds
# ---------------------------------------------------------------------------

class ZnRing(Ring):
    def __init__(self, descriptor: Zn):
        self.descriptor = descriptor
        self.order = descriptor.n
        self.one = 1
        self._init_positional([descriptor.n])

    def mul_many(self, xs, ys) -> np.ndarray:
        return xs * ys % self.order


class GfRing(Ring):
    """GF(p^k), with the modulus and the element indexing of ``fields``.
    For k > 1 the scalar ``mul`` and ``inv`` and the kernel ``mul_many``
    read one pair of log/antilog tables; addition is ``Ring``'s digit-wise
    one.  The product ``_poly_mul`` (``fields.mul_mod``) finds a generator
    and the images gen * x^j of the basis, and the antilog table walks the
    powers of the generator through the linear map those images span."""

    def __init__(self, descriptor: Gf):
        self.descriptor = descriptor
        self.order = self.q = descriptor.q
        self.p, self.k = prime_power(descriptor.q)
        self.modulus = smallest_irreducible(self.p, self.k)
        self.one = 1
        self._init_positional([self.p] * self.k)

    def mul(self, x: int, y: int) -> int:
        x, y = self._element(x), self._element(y)
        if self.k == 1:
            return (x * y) % self.p
        log, exp = self._scalar_tables
        return exp[log[x] + log[y]]

    def _poly_mul(self, x: int, y: int) -> int:
        """The product as polynomials reduced modulo the modulus
        (``fields.mul_mod`` on the digits): what the log/antilog tables
        are built from."""
        a, b = ([z // pl % self.p for pl in self._places] for z in (x, y))
        out = mul_mod(a, b, self.modulus, self.p)
        return sum(c * pl for c, pl in zip(out, self._places))

    def inv(self, x: int) -> int:
        if self._element(x) == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.k == 1:
            return pow(x, self.p - 2, self.p)
        log, exp = self._scalar_tables
        return exp[(self.q - 1 - log[x]) % (self.q - 1)]

    @cached_property
    def _log_exp(self) -> tuple[np.ndarray, np.ndarray]:
        """Discrete logarithm and antilogarithm tables for ``mul_many``.

        log[0] is the sentinel 2(q-1) and exp is zero from index 2(q-1) on,
        so a product with a zero factor looks up a zero without a branch.
        """
        q, p = self.q, self.p
        primes = [r for r, _ in factorize(q - 1)] if q > 2 else []
        gen = next(
            c for c in range(1, q)
            if all(_power(self._poly_mul, c, (q - 1) // r) != self.one for r in primes)
        )
        places = np.array(self._places, dtype=np.int64)
        # multiplying by gen is GF(p)-linear on the digits; row j of its
        # matrix holds the digits of gen * x^j
        gen_times = np.array([self._poly_mul(gen, pl) for pl in self._places])
        digits = np.arange(q)[:, None] // places % p
        step = (digits @ (gen_times[:, None] // places % p) % p @ places).tolist()
        walk = [self.one] * (q - 1)
        x = self.one
        for i in range(1, q - 1):
            x = walk[i] = step[x]
        exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
        exp[: q - 1] = exp[q - 1 : 2 * (q - 1)] = walk
        log = np.empty(q, dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1)
        log[0] = 2 * (q - 1)
        return log, exp

    @cached_property
    def _scalar_tables(self) -> tuple[list[int], list[int]]:
        """``_log_exp`` as Python lists, for the scalar ``mul`` and ``inv``."""
        log, exp = self._log_exp
        return log.tolist(), exp.tolist()

    def mul_many(self, xs, ys) -> np.ndarray:
        log, exp = self._log_exp
        return exp[log[xs] + log[ys]]

    def _compute_units(self) -> int:
        return ((1 << self.order) - 1) & ~1

    def element_repr(self, x: int) -> str:
        if self.k == 1:
            return str(x)
        terms = []
        for i, pl in enumerate(self._places):
            c = x // pl % self.p
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}g" if i == 1 else f"{head}g^{i}")
        return "+".join(terms) if terms else "0"


def _power(mul, x: int, e: int) -> int:
    """x^e by square-and-multiply under the product mul."""
    result = 1
    while e:
        if e & 1:
            result = mul(result, x)
        x = mul(x, x)
        e >>= 1
    return result


class MatRing(Ring):
    def __init__(self, descriptor: Mat, base: Ring):
        self.descriptor = descriptor
        self.base = base
        k = self.k = descriptor.k
        self._init_parts([base] * (k * k))
        pairs = itertools.product(range(k), repeat=2)
        self.one = self.from_parts([base.one if i == j else base.zero for i, j in pairs])

    def mul_many(self, xs, ys) -> np.ndarray:
        a, c = self.parts(xs), self.parts(ys)
        base, k = self.base, self.k
        out = []
        for i, j in itertools.product(range(k), repeat=2):
            acc = base.mul_many(a[i * k], c[j])
            for l in range(1, k):
                acc = base.add_many(acc, base.mul_many(a[i * k + l], c[l * k + j]))
            out.append(acc)
        return self.from_parts(out)

    def det_many(self, xs) -> np.ndarray:
        """Leibniz determinant through the base kernels; meaningful only
        over a commutative base."""
        a = self.parts(xs)
        base, k = self.base, self.k
        det = 0
        for perm in itertools.permutations(range(k)):
            term = a[perm[0]]
            for i in range(1, k):
                term = base.mul_many(term, a[i * k + perm[i]])
            inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
            if inversions % 2:
                term = base.neg_many(term)
            det = base.add_many(det, term)
        return det

    def _compute_units(self) -> int:
        if not isinstance(self.base, GfRing):
            return super()._compute_units()
        # over a field a matrix is a unit iff its determinant is nonzero
        return bools_to_mask(self.det_many(np.arange(self.order)) != 0)

    def element_repr(self, x: int) -> str:
        entries = [self.base.element_repr(e) for e in self.parts(x)]
        k = self.k
        return "[" + "; ".join(" ".join(entries[i : i + k]) for i in range(0, k * k, k)) + "]"


class ProductRing(Ring):
    def __init__(self, descriptor: Product, factors: list[Ring]):
        self.descriptor = descriptor
        self.factors = tuple(factors)
        self._init_parts(factors)
        self.one = self.from_parts([f.one for f in factors])

    def mul_many(self, xs, ys) -> np.ndarray:
        pairs = zip(self.factors, self.parts(xs), self.parts(ys))
        return self.from_parts([f.mul_many(a, b) for f, a, b in pairs])

    def element_repr(self, x: int) -> str:
        reprs = [f.element_repr(c) for f, c in zip(self.factors, self.parts(x))]
        return "(" + ", ".join(reprs) + ")"


class GroupAlgebraRing(Ring):
    def __init__(self, descriptor: GroupAlgebra, field: GfRing):
        self.descriptor = descriptor
        self.field = field  # the coefficient field
        self.gorder = group_order(descriptor.group)
        self.gtable = group_mul_table(descriptor.group)
        self._init_parts([field] * self.gorder)
        self.one = 1  # coefficient 1 on the group identity
        # the (g, h) with g*h = t, for each group element t
        self._terms = [
            [(g, h) for g in range(self.gorder) for h in range(self.gorder)
             if self.gtable[g][h] == t]
            for t in range(self.gorder)
        ]

    def mul_many(self, xs, ys) -> np.ndarray:
        a, b = self.parts(xs), self.parts(ys)
        f = self.field
        out = []
        for pairs in self._terms:
            acc = 0
            for g, h in pairs:
                acc = f.add_many(acc, f.mul_many(a[g], b[h]))
            out.append(acc)
        return self.from_parts(out)

    @cached_property
    def _block_maps(self) -> list[tuple[GfRing, np.ndarray, np.ndarray]]:
        """Per block of R/J(R): the field F = GF(q^d) as ``block_ring``
        realizes it, the embedding of GF(q) into F as an index table, and
        the image in F of each group element.

        For C_n with n = p^a m, p not dividing m, coset c of Z/m with least
        element j sends g to eta = gamma^((q^d - 1) j / m), gamma the log
        base of F; eta is a root of x^m - 1 whose Frobenius orbit is c.
        D4 and Q8 in characteristic 2 have the one block of m = 1, the
        augmentation; in odd characteristic they have no realized map."""
        fld = self.field
        if not isinstance(self.descriptor.group, Cn) and fld.p != 2:
            raise UnsupportedStructure(f"{self.expr}: no realized map onto R/J(R)")
        n = self.gorder if isinstance(self.descriptor.group, Cn) else 1
        cosets = cyclotomic_cosets(fld.q, n)
        m = sum(map(len, cosets))
        out = []
        for c in cosets:
            big = block_ring((1, fld.q ** len(c)))
            exp, top = big._log_exp[1], big.order - 1
            chi = exp[np.arange(self.gorder) * (top * c[0] // m) % top]
            out.append((big, self._embedding(big), chi))
        return out

    def _embedding(self, big: GfRing) -> np.ndarray:
        """GF(q) -> F as an index table: GF(q)'s generator goes to the
        least-index root in F of GF(q)'s modulus; the identity where
        GF(q) is prime or F is GF(q) itself (whose least root is x)."""
        fld = self.field
        if fld.k == 1 or big.order == fld.q:
            return np.arange(fld.q)
        (log, exp), top = big._log_exp, big.order - 1
        subfield = np.append(0, exp[np.arange(fld.q - 1) * (top // (fld.q - 1))])
        value = 0
        for coef in reversed(fld.modulus):
            value = big.add_many(big.mul_many(value, subfield), coef)
        root = subfield[value == 0].min()
        out = 0
        for i in range(fld.k):
            power = exp[log[root] * i % top]
            out = big.add_many(out, big.mul_many(np.arange(fld.q) // fld.p**i % fld.p, power))
        return out

    def element_repr(self, x: int) -> str:
        names = self._element_names()
        terms = []
        for g, c in enumerate(self.parts(x)):
            if c == 0:
                continue
            coef = "" if c == 1 else f"{c}*"
            terms.append(f"{coef}{names[g]}" if g else str(c) if c != 1 else "1")
        return "+".join(terms) if terms else "0"

    def _element_names(self) -> list[str]:
        n = self.gorder
        if isinstance(self.descriptor.group, Cn):
            return ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
        names = ["e", "a", "a^2", "a^3", "b", "ab", "a^2b", "a^3b"]
        return names[:n]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
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
    return GroupAlgebraRing(descriptor, _build_ring_cached(Gf(descriptor.q)))


def build_ring(descriptor: RingDescriptor, order_cap: int = DEFAULT_ORDER_CAP) -> Ring:
    """Realize a descriptor as an arithmetic object.

    order_cap guards against accidentally huge realizations; arithmetic
    is supported up to 2^16 elements, graph construction has its own
    (smaller) cap.
    """
    if not isinstance(descriptor, RingDescriptor):
        raise DescriptorError(f"unknown descriptor {descriptor!r}")
    if type(order_cap) is bool or not isinstance(order_cap, int):
        raise RingError(f"bad order_cap {order_cap!r}")
    cap = min(order_cap, HARD_ORDER_CAP)
    if descriptor_order(descriptor, cap) > cap:
        raise CapExceeded(
            f"{descriptor_expr(descriptor)} has more elements than the cap {cap}"
        )
    return _build_ring_cached(descriptor)


def block_ring(block: Block) -> Ring:
    """Block (n, q) of R/J(R) realized: GF(q) for n = 1, else M_n(GF(q))."""
    # arithmetic cap: a block never exceeds the order of the ring it is from
    n, q = block
    return build_ring(Gf(q) if n == 1 else Mat(n, Gf(q)), order_cap=HARD_ORDER_CAP)


# ---------------------------------------------------------------------------
# Jacobson radical and quotient
# ---------------------------------------------------------------------------

def jacobson_radical(ring: Ring) -> VertexSet:
    """Jacobson radical as an element set: the ring's ``radical_mask``,
    the kernel of its ``block_images``, computed once per ring."""
    return VertexSet(ring.radical_mask, ring.order)


def _radical_structural(ring: Ring) -> int:
    """J(R) as the kernel of R -> R/J(R): the elements whose block images
    are all zero."""
    return bools_to_mask(np.logical_and.reduce([image == 0 for image in ring.block_images]))


def semisimple_images(ring: Ring, xs) -> list[np.ndarray]:
    """Images of elements under R -> R/J(R) = B_1 x ... x B_t, elementwise
    on an index array: one array of ``block_ring`` indices per block of
    ``semisimple_blocks``.  Raises UnsupportedStructure for D4 and Q8 in
    odd characteristic, whose algebras exceed the default cap."""
    xs = np.asarray(xs, dtype=np.int64)
    if isinstance(ring, QuotientRing):
        return ring.parts(xs)
    if isinstance(ring, ZnRing):
        return [xs % p for p, _ in factorize(ring.order)]
    if isinstance(ring, GfRing):
        return [xs]
    if isinstance(ring, ProductRing):
        return [
            image
            for f, c in zip(ring.factors, ring.parts(xs))
            for image in semisimple_images(f, c)
        ]
    if isinstance(ring, GroupAlgebraRing):
        coeffs = ring.parts(xs)
        out = []
        for big, embed, chi in ring._block_maps:
            acc = 0
            for a, g in zip(coeffs, chi):
                acc = big.add_many(acc, big.mul_many(embed[a], g))
            out.append(acc)
        return out
    if not isinstance(ring, MatRing):
        raise UnsupportedStructure(f"no semisimple images for {type(ring).__name__}")
    # entry (i, j) maps into every base block; block b's m x m piece of it
    # lands at rows i*m.., columns j*m.. of a km x km matrix over GF(q)
    k = ring.k
    entries = [semisimple_images(ring.base, e) for e in ring.parts(xs)]
    out = []
    for b, (m, q) in enumerate(semisimple_blocks(ring.base.descriptor)):
        big = 0
        for i, j, r, c in itertools.product(range(k), range(k), range(m), range(m)):
            digit = entries[i * k + j][b] // q ** (r * m + c) % q
            big = big + digit * q ** ((i * m + r) * k * m + j * m + c)
        out.append(big)
    return out


class QuotientRing(ProductRing):
    """The quotient of a ring by its Jacobson radical, realized as the
    block product B_1 x ... x B_t of ``semisimple_blocks``: ``blocks``
    lists the shapes (n, q) and ``factors`` the realized B_i =
    M_n(GF(q)), in that order.  ``descriptor`` is the block's own for one
    block, their ``Product`` otherwise, and ``canonical_ring`` the same
    product realized from it alone.

    Element k is the coset whose ``semisimple_images`` are the parts of
    k, one per block, block 0 least significant, so the quotient adds
    digit-wise and multiplies factor by factor like any product here.
    ``project`` sends a parent element to its coset and
    ``representatives[k]`` is the least parent element of coset k.  For
    Z6 -> GF(2) x GF(3), x goes to x % 2 + 2 * (x % 3), so the
    representatives are (0, 3, 4, 1, 2, 5).
    """

    def __init__(self, parent: Ring, radical: VertexSet):
        self.parent = parent
        self.radical = radical
        self.blocks = semisimple_blocks(parent.descriptor)
        factors = [block_ring(b) for b in self.blocks]
        shapes = tuple(r.descriptor for r in factors)
        super().__init__(shapes[0] if len(shapes) == 1 else Product(shapes), factors)
        self.canonical_ring = build_ring(self.descriptor, order_cap=HARD_ORDER_CAP)
        self._keys = self.from_parts(parent.block_images)
        found, first = np.unique(self._keys, return_index=True)
        if len(found) != self.order or self.order * len(radical) != parent.order:
            raise RingError("radical cosets do not partition the ring")
        self.representatives = tuple(first.tolist())

    def project(self, parent_index: int) -> int:
        """Quotient index of the coset containing a parent element."""
        return int(self._keys[self.parent._element(parent_index)])

    @property
    def expr(self) -> str:
        return f"({descriptor_expr(self.parent.descriptor)})/J"

    def element_repr(self, x: int) -> str:
        return self.parent.element_repr(self.representatives[x]) + "~"


@lru_cache(maxsize=CACHE_SIZE)
def quotient_by_radical(ring: Ring) -> QuotientRing:
    """Quotient of a ring by its Jacobson radical; interned per ring so
    repeated lifts share one quotient (and one cached quotient graph)."""
    return QuotientRing(ring, jacobson_radical(ring))

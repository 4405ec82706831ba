"""Symbolic descriptions of finite rings.

A ring is described compositionally before it is realized:

* ``Zn(n)``            -- integers modulo n,
* ``Gf(q)``            -- the field with q = p^k elements,
* ``Mat(k, base)``     -- k x k matrices over another described ring,
* ``Product(factors)`` -- direct product of described rings,
* ``GroupAlgebra(q, group)`` -- formal GF(q)-linear combinations of a
  small finite group (cyclic, dihedral of order 8, quaternion of order 8).

Descriptors are immutable and hashable, so realized rings can be cached
per descriptor and element encodings stay reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass


class DescriptorError(ValueError):
    """A ring descriptor violates one of its invariants."""


# ---------------------------------------------------------------------------
# small integer utilities
# ---------------------------------------------------------------------------

# Trial division up to the square root of 2^40 stays near a tenth of a
# second; larger moduli are rejected rather than factored for hours.
MAX_MODULUS = 1 << 40


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of 2 <= n <= MAX_MODULUS as (prime, exponent)
    pairs, ascending."""
    if n < 2:
        raise ValueError(f"cannot factorize {n}")
    if n > MAX_MODULUS:
        raise DescriptorError("moduli and field orders above 2^40 are not supported")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k if q is a prime power >= 2, else None."""
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    return fac[0]


# ---------------------------------------------------------------------------
# group identifiers for group algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cn:
    """Cyclic group of order m."""

    m: int


@dataclass(frozen=True)
class D4:
    """Dihedral group of order 8."""


@dataclass(frozen=True)
class Q8:
    """Quaternion group of order 8."""


GroupId = Cn | D4 | Q8


def group_order(g: GroupId) -> int:
    if isinstance(g, Cn):
        return g.m
    return 8


def group_name(g: GroupId) -> str:
    if isinstance(g, Cn):
        return f"C{g.m}"
    return "D4" if isinstance(g, D4) else "Q8"


def group_is_p_group(g: GroupId, p: int) -> bool:
    """Whether |G| is a power of the prime p (the trivial group counts)."""
    n = group_order(g)
    while n % p == 0:
        n //= p
    return n == 1


def group_mul_table(g: GroupId) -> list[list[int]]:
    """Multiplication table with identity first.

    Cyclic groups are indexed by exponent.  D4 and Q8 are presented as
    <a, b | a^4 = 1, b^2 = a^t, b a b^-1 = a^-1> with t = 0 for D4 and
    t = 2 for Q8; element a^i b^j has index i + 4j.
    """
    if isinstance(g, Cn):
        m = g.m
        return [[(a + b) % m for b in range(m)] for a in range(m)]
    t = 0 if isinstance(g, D4) else 2
    table = []
    for x in range(8):
        i, j = x % 4, x // 4
        row = []
        for y in range(8):
            k, l = y % 4, y // 4
            m_exp = i + (k if j == 0 else -k)
            if j == 1 and l == 1:
                m_exp += t
            row.append(m_exp % 4 + 4 * ((j + l) % 2))
        table.append(row)
    return table


# ---------------------------------------------------------------------------
# ring descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Zn:
    """Integers modulo n, n >= 2."""

    n: int


@dataclass(frozen=True)
class Gf:
    """Finite field of prime-power order q."""

    q: int


@dataclass(frozen=True)
class Mat:
    """k x k matrices over the base ring, k >= 1."""

    k: int
    base: "RingDescriptor"


@dataclass(frozen=True)
class Product:
    """Direct product of the factor rings, in order."""

    factors: tuple["RingDescriptor", ...]


@dataclass(frozen=True)
class GroupAlgebra:
    """Group algebra GF(q)[G] for one of the supported small groups."""

    q: int
    group: GroupId


RingDescriptor = Zn | Gf | Mat | Product | GroupAlgebra


def validate_descriptor(d: RingDescriptor) -> None:
    """Raise DescriptorError if d violates a structural invariant."""
    if isinstance(d, Zn):
        if d.n < 2:
            raise DescriptorError(f"Z{d.n}: modulus must be at least 2")
    elif isinstance(d, Gf):
        if prime_power(d.q) is None:
            raise DescriptorError(f"{d.q} is not a prime power")
    elif isinstance(d, Mat):
        if d.k < 1:
            raise DescriptorError(f"M{d.k}: matrix size must be at least 1")
        validate_descriptor(d.base)
    elif isinstance(d, Product):
        if not d.factors:
            raise DescriptorError("empty product")
        for f in d.factors:
            validate_descriptor(f)
    elif isinstance(d, GroupAlgebra):
        if prime_power(d.q) is None:
            raise DescriptorError(f"{d.q} is not a prime power")
        if isinstance(d.group, Cn) and d.group.m < 1:
            raise DescriptorError(f"C{d.group.m}: group order must be positive")
    else:
        raise DescriptorError(f"unknown descriptor {d!r}")


def descriptor_order(d: RingDescriptor, cap: int | None = None) -> int:
    """Order of the ring d realizes.  With a cap, every order above it
    comes back as cap + 1, and no integer much larger than the cap is
    formed on the way (M3000(Z2) has 2^(9*10^6) elements)."""
    if isinstance(d, Zn):
        return _saturate(d.n, cap)
    if isinstance(d, Gf):
        return _saturate(d.q, cap)
    if isinstance(d, Mat):
        return _power(descriptor_order(d.base, cap), d.k * d.k, cap)
    if isinstance(d, Product):
        n = 1
        for f in d.factors:
            n = _saturate(n * descriptor_order(f, cap), cap)
        return n
    return _power(d.q, group_order(d.group), cap)


def _saturate(n: int, cap: int | None) -> int:
    return n if cap is None or n <= cap else cap + 1


def _power(base: int, e: int, cap: int | None) -> int:
    if cap is None:
        return base**e
    n = 1
    for _ in range(e):  # base >= 2, so this stops within log2(cap) + 1 steps
        n *= base
        if n > cap:
            return cap + 1
    return n


def is_commutative(d: RingDescriptor) -> bool:
    """Commutativity read off the descriptor: Zn, GF(q), group algebras of
    cyclic groups, and products of these.  Everything else, matrix rings
    included, reports False."""
    if isinstance(d, (Zn, Gf)):
        return True
    if isinstance(d, GroupAlgebra):
        return isinstance(d.group, Cn)
    if isinstance(d, Product):
        return all(is_commutative(f) for f in d.factors)
    return False


Block = tuple[int, int]  # (matrix size n, field order q)


def semisimple_blocks(d: RingDescriptor) -> tuple[Block, ...] | None:
    """Blocks M_n(GF(q)) of R/J(R) in structural (descriptor) order, or
    None outside the closed forms: one (1, p) per prime p | n for Zn,
    (1, q) for GF(q) and for GF(q)[G] with G a p-group in characteristic
    p, each base block (n, q) as (k*n, q) for M_k(base), and the
    concatenation for products."""
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
    if group_is_p_group(d.group, factorize(d.q)[0][0]):
        return ((1, d.q),)
    return None


def flatten_factors(d: RingDescriptor) -> tuple[RingDescriptor, ...]:
    """Factor list of d viewed as a direct product (itself if not a product).

    Nested products flatten; the mixed-radix element encoding is unchanged
    by flattening because factor strides compose associatively.
    """
    if isinstance(d, Product):
        out: list[RingDescriptor] = []
        for f in d.factors:
            out.extend(flatten_factors(f))
        return tuple(out)
    return (d,)


def descriptor_expr(d: RingDescriptor) -> str:
    """Canonical text form of a descriptor (the parser's inverse)."""
    if isinstance(d, Zn):
        return f"Z{d.n}"
    if isinstance(d, Gf):
        return f"GF({d.q})"
    if isinstance(d, Mat):
        return f"M{d.k}({descriptor_expr(d.base)})"
    if isinstance(d, GroupAlgebra):
        return f"GA(GF({d.q}), {group_name(d.group)})"
    parts = []
    for f in d.factors:
        s = descriptor_expr(f)
        parts.append(f"({s})" if isinstance(f, Product) else s)
    return " x ".join(parts)

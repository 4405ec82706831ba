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
Each checks its fields when constructed, so a descriptor that names no
ring raises DescriptorError instead of being built.
"""

from __future__ import annotations

from dataclasses import dataclass


class DescriptorError(ValueError):
    """A ring descriptor violates one of its invariants."""


class RingError(Exception):
    """Arithmetic-level failure (inconsistent inverses, bad element index)."""


class CapExceeded(RingError):
    """A configured size cap was exceeded."""


# Entries kept by each lru_cache of the package (build_ring, quotient_by_radical,
# build_graph, smallest_irreducible), so a long-running process stays bounded.
CACHE_SIZE = 32


# ---------------------------------------------------------------------------
# small integer utilities
# ---------------------------------------------------------------------------

# Trial division up to the square root of 2^40 stays near a tenth of a
# second; larger moduli are rejected rather than factored for hours.
MAX_MODULUS = 1 << 40
# Cyclotomic cosets of Z/m are listed element by element, so m is bounded;
# GF(q)[C_m] then has at least 2^(2^16) elements, far past any realized ring.
MAX_COSET_MODULUS = 1 << 16
# Brackets nest at most this deep in a ring expression (see dsl) and in a
# descriptor's text form, far inside Python's recursion limit for the
# parser and for the recursive descriptor walks.
MAX_DEPTH = 100


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


def _check(value, ok, message: str) -> None:
    # bool is an int subclass; NumPy integers are not int at all
    if not isinstance(value, int) or isinstance(value, bool):
        raise DescriptorError(f"{value!r} is not an int")
    if not ok(value):
        raise DescriptorError(message)


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k if q is a prime power >= 2, else None."""
    if q < 2:
        return None
    fac = factorize(q)
    return fac[0] if len(fac) == 1 else None


# ---------------------------------------------------------------------------
# group identifiers for group algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cn:
    """Cyclic group of order m, m >= 1."""

    m: int

    def __post_init__(self):
        _check(self.m, lambda m: m >= 1, f"C{self.m}: group order must be positive")


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


def cyclotomic_cosets(q: int, n: int) -> list[tuple[int, ...]]:
    """The q-cyclotomic cosets {j, jq, jq^2, ...} of Z/m, where m is the
    part of n prime to the characteristic of GF(q), ordered by their least
    element j (listed first).  Raises CapExceeded above MAX_COSET_MODULUS."""
    p, m = factorize(q)[0][0], n
    while m % p == 0:
        m //= p
    if m > MAX_COSET_MODULUS:
        raise CapExceeded(f"C{n}: cosets modulo {m} exceed {MAX_COSET_MODULUS}")
    seen: set[int] = set()
    out = []
    for j in range(m):
        if j not in seen:
            coset = [j]
            while coset[-1] * q % m != j:
                coset.append(coset[-1] * q % m)
            seen.update(coset)
            out.append(tuple(coset))
    return out


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

    def __post_init__(self):
        _check(self.n, lambda n: n >= 2, f"Z{self.n}: modulus must be at least 2")


@dataclass(frozen=True)
class Gf:
    """Finite field of prime-power order q."""

    q: int

    def __post_init__(self):
        _check(self.q, prime_power, f"{self.q} is not a prime power")


@dataclass(frozen=True)
class Mat:
    """k x k matrices over the base ring, k >= 1."""

    k: int
    base: "RingDescriptor"

    def __post_init__(self):
        _check(self.k, lambda k: k >= 1, f"M{self.k}: matrix size must be at least 1")
        if not isinstance(self.base, RingDescriptor):
            raise DescriptorError(f"M{self.k}: {self.base!r} is not a ring descriptor")
        _check_depth(self)


@dataclass(frozen=True)
class Product:
    """Direct product of the factor rings, in order."""

    factors: tuple["RingDescriptor", ...]

    def __post_init__(self):
        fs = self.factors
        if not isinstance(fs, tuple) or not all(isinstance(f, RingDescriptor) for f in fs):
            raise DescriptorError(f"{fs!r} is not a tuple of ring descriptors")
        if not fs:
            raise DescriptorError("empty product")
        _check_depth(self)


@dataclass(frozen=True)
class GroupAlgebra:
    """Group algebra GF(q)[G] for one of the supported small groups."""

    q: int
    group: GroupId

    def __post_init__(self):
        _check(self.q, prime_power, f"{self.q} is not a prime power")
        if not isinstance(self.group, GroupId):
            raise DescriptorError(f"{self.group!r} is not C<n>, D4 or Q8")


RingDescriptor = Zn | Gf | Mat | Product | GroupAlgebra


def _check_depth(d: Mat | Product) -> None:
    # d's children passed this check when built, so the walk stays shallow
    if _depth(d) > MAX_DEPTH:
        raise DescriptorError(f"descriptors nest at most {MAX_DEPTH} brackets deep")


def _depth(d: RingDescriptor) -> int:
    """How deep ``descriptor_expr(d)`` nests the brackets the parser
    counts: one pair per matrix, and one per product inside a product."""
    if isinstance(d, Mat):
        return 1 + _depth(d.base)
    if isinstance(d, Product):
        return max(_depth(f) + isinstance(f, Product) for f in d.factors)
    return 0


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


Block = tuple[int, int]  # (matrix size n, field order q)


def semisimple_blocks(d: RingDescriptor) -> tuple[Block, ...]:
    """Blocks M_n(GF(q)) of R/J(R) in structural (descriptor) order: one
    (1, p) per prime p | n for Zn; (1, q) for GF(q); for GF(q)[C_n] one
    (1, q^|c|) per q-cyclotomic coset c of Z/m, m the part of n prime to
    the characteristic, by least element (Perlis & Walker, Trans. AMS 68,
    1950: GF(q)[C_n]/J = GF(q)[C_m]); (1, q) for D4 and Q8 in
    characteristic 2 (2-groups, so the algebra is local) and
    4 (1, q) + (2, q) in odd characteristic (four linear characters and
    one split 2-dimensional representation); each base block (n, q) as
    (k*n, q) for M_k(base); and the concatenation for products."""
    if isinstance(d, Zn):
        return tuple((1, p) for p, _ in factorize(d.n))
    if isinstance(d, Gf):
        return ((1, d.q),)
    if isinstance(d, Mat):
        return tuple((d.k * n, q) for n, q in semisimple_blocks(d.base))
    if isinstance(d, Product):
        return tuple(b for f in d.factors for b in semisimple_blocks(f))
    if isinstance(d.group, Cn):
        return tuple((1, d.q ** len(c)) for c in cyclotomic_cosets(d.q, d.group.m))
    if d.q % 2 == 0:
        return ((1, d.q),)
    return ((1, d.q),) * 4 + ((2, d.q),)


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

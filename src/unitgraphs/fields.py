"""Polynomials over GF(p) and the pinned modulus of GF(p^k).

GF(p^k) is realized by ``rings.GfRing``: its elements are residues of
GF(p)[x] modulo the monic irreducible ``smallest_irreducible(p, k)``,
and the element with coefficient vector (c_0, c_1, ..., c_{k-1}) (low
degree first) has index c_0 + c_1 p + ... + c_{k-1} p^{k-1}, so 0 is
the zero element and 1 the identity.

The modulus is pinned without external tables: it is the monic irreducible
polynomial of degree k whose coefficient tuple (a_0, ..., a_{k-1}),
ordered low degree first, is lexicographically smallest.  For k >= 2
the search starts at a_0 = 1: a polynomial with a_0 = 0 has x as a
factor, and those are half the tuples that come first.  Each candidate
then takes Ben-Or's irreducibility test, so the search is cheap at the
supported sizes (q <= 2^16); trial division stays in the tests as the
reference.

Polynomials over GF(p) are plain lists of ints in [0, p), low degree
first, with trailing zeros trimmed ([] is the zero polynomial).  This is
the only module that knows that form: ``mul_mod`` is the one product
reduced modulo a polynomial, and ``GfRing`` multiplies through it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .descriptors import CACHE_SIZE


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _remainder(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over GF(p), for a trimmed nonzero b; a is not changed."""
    k = len(b) - 1
    a = list(a)
    inv_lead = pow(b[-1], -1, p)
    # cancel the top coefficient of a, then the next one down, ...; the
    # coefficients above k stay uncancelled in a, since only a[:k] is read
    for top in range(len(a) - 1, k - 1, -1):
        coef = a[top] * inv_lead % p
        if coef:
            for i in range(k):
                a[top - k + i] -= coef * b[i]
    return _trim([c % p for c in a[:k]])


def mul_mod(a, b, f, p: int) -> list[int]:
    """a * b mod f over GF(p), for a trimmed nonzero f and any a, b."""
    prod = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _remainder(prod, f, p)


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test (FOCS 1981): f of degree k >= 1 is irreducible over
    GF(p) iff gcd(f, x^(p^i) - x) = 1 for i = 1..k//2, since x^(p^i) - x
    is the product of the monic irreducibles of degree dividing i, and a
    reducible f has a factor of degree at most k/2.  Each x^(p^i) mod f
    is the p-th power of the one before, and over GF(p) the p-th power
    of h(x) is h(x^p), so it only spreads the coefficients."""
    h = [0, 1]  # x
    for _ in range((len(f) - 1) // 2):
        spread = [0] * (len(h) * p)
        spread[::p] = h
        h = _remainder(spread, f, p)
        a, b = f, h + [0] * (2 - len(h))
        b[1] = (b[1] - 1) % p  # h - x
        _trim(b)
        while b:
            a, b = b, _remainder(a, b, p)
        if len(a) > 1:  # a common factor of positive degree
            return False
    return True


@lru_cache(maxsize=CACHE_SIZE)
def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over GF(p) with lexicographically
    smallest low-first coefficient tuple (a_0, ..., a_{k-1}).

    Returned as the full coefficient tuple of length k + 1 (leading 1).
    For k >= 2 every tuple with a_0 = 0 is divisible by x, so the search
    skips them and starts at a_0 = 1; the result is the same.
    """
    if k == 1:
        return (0, 1)
    # itertools.product counts with a_0 most significant: lexicographic
    for low in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        if _is_irreducible([*low, 1], p):
            return (*low, 1)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")

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
factor, and those are half the tuples that come first.  From there the
exhaustive search is cheap at the supported sizes (q <= 2^16).

Polynomials over GF(p) are plain lists of ints in [0, p), low degree
first, with trailing zeros trimmed ([] is the zero polynomial).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .descriptors import CACHE_SIZE


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over GF(p); b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    while len(r) >= len(b) and any(r):
        _trim(r)
        if len(r) < len(b):
            break
        shift = len(r) - len(b)
        coef = (r[-1] * inv_lead) % p
        q[shift] = coef
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - coef * bi) % p
        _trim(r)
    return _trim(q), _trim(r)


def _is_irreducible(f: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    k = len(f) - 1
    if k < 1 or f[-1] == 0:
        return False
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        # monic divisors of degree d, low-first coefficients a_0..a_{d-1}
        for low in itertools.product(range(p), repeat=d):
            if not poly_divmod(f, [*low, 1], p)[1]:
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


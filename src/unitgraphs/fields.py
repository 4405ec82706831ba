"""Arithmetic in GF(p^k) with deterministic element indexing.

Elements of GF(p^k) are residues of GF(p)[x] modulo a monic irreducible
polynomial f of degree k.  An element with coefficient vector
(c_0, c_1, ..., c_{k-1}) (low degree first) is indexed by the integer
c_0 + c_1 p + ... + c_{k-1} p^{k-1}, so 0 is the zero element and 1 the
identity.

The modulus is pinned without external tables: it is the monic irreducible
polynomial of degree k whose coefficient tuple (a_0, ..., a_{k-1}),
ordered low degree first, is lexicographically smallest.  Exhaustive
search is cheap at the supported sizes (q <= 2^16).

Polynomials over GF(p) are plain lists of ints in [0, p), low degree
first, with trailing zeros trimmed ([] is the zero polynomial).
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

import numpy as np

from .descriptors import CACHE_SIZE, factorize, prime_power


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
    """
    if k == 1:
        return (0, 1)
    # itertools.product counts with a_0 most significant: lexicographic
    for low in itertools.product(range(p), repeat=k):
        if _is_irreducible([*low, 1], p):
            return (*low, 1)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


def _power(mul, x: int, e: int) -> int:
    """x^e by square-and-multiply under the product mul."""
    result = 1
    while e:
        if e & 1:
            result = mul(result, x)
        x = mul(x, x)
        e >>= 1
    return result


class GfField:
    """Arithmetic for GF(p^k) on integer indices.  For k > 1 the scalar
    ``mul`` and ``inv`` and the vectorized product ``mul_many`` read one
    pair of log/antilog tables, built from the polynomial product."""

    def __init__(self, q: int):
        pk = prime_power(q)
        if pk is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        self.p, self.k = pk
        self.modulus = smallest_irreducible(self.p, self.k)
        # x^(k+j) mod f for j = 0..k-2, used to fold products back down
        self._red: list[list[int]] = []
        f = list(self.modulus)
        xk = [(-c) % self.p for c in f[:-1]]  # x^k = -(f - x^k)
        cur = xk
        for _ in range(self.k - 1):
            self._red.append(list(cur))
            cur = [0] + cur  # multiply by x
            if len(cur) > self.k:
                top = cur.pop()
                if top:
                    cur = [(c + top * r) % self.p for c, r in zip(cur, xk)]
        self.zero = 0
        self.one = 1

    def decode(self, x: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(x % self.p)
            x //= self.p
        return out

    def encode(self, coeffs: list[int]) -> int:
        x = 0
        for c in reversed(coeffs[: self.k]):
            x = x * self.p + c % self.p
        return x

    def add(self, x: int, y: int) -> int:
        p = self.p
        out = 0
        place = 1
        for _ in range(self.k):
            out += ((x + y) % p) * place
            x //= p
            y //= p
            place *= p
        return out

    def neg(self, x: int) -> int:
        p = self.p
        out = 0
        place = 1
        for _ in range(self.k):
            out += (-x % p) * place
            x //= p
            place *= p
        return out

    def mul(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x * y) % self.p
        log, exp = self._scalar_tables
        return exp[log[x] + log[y]]

    def _poly_mul(self, x: int, y: int) -> int:
        """The product as polynomials reduced modulo the modulus: what the
        log/antilog tables are built from."""
        a = self.decode(x)
        b = self.decode(y)
        prod = [0] * (2 * self.k - 1)
        p = self.p
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        out = prod[: self.k]
        for j in range(self.k - 1):
            c = prod[self.k + j]
            if c:
                red = self._red[j]
                for i, r in enumerate(red):
                    out[i] = (out[i] + c * r) % p
        return self.encode(out)

    def inv(self, x: int) -> int:
        if x == 0:
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
        q = self.q
        primes = [r for r, _ in factorize(q - 1)] if q > 2 else []
        gen = next(
            c for c in range(1, q)
            if all(_power(self._poly_mul, c, (q - 1) // r) != self.one for r in primes)
        )
        exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
        x = self.one
        for i in range(q - 1):
            exp[i] = exp[i + q - 1] = x
            x = self._poly_mul(x, gen)
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
        """Elementwise, broadcasting product of index arrays."""
        log, exp = self._log_exp
        return exp[log[xs] + log[ys]]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))


# ---------------------------------------------------------------------------
# dense matrices over a GfField, represented as lists of rows of indices
# ---------------------------------------------------------------------------

def mat_identity(fld: GfField, n: int) -> list[list[int]]:
    return [[fld.one if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(fld: GfField, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, m = len(a), len(b[0])
    inner = len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for l in range(inner):
            ail = a[i][l]
            if ail == 0:
                continue
            brow = b[l]
            orow = out[i]
            for j in range(m):
                if brow[j]:
                    orow[j] = fld.add(orow[j], fld.mul(ail, brow[j]))
    return out


def mat_det(fld: GfField, a: list[list[int]]) -> int:
    """Determinant by Gaussian elimination; 0 exactly when singular."""
    n = len(a)
    m = [row[:] for row in a]
    det = fld.one
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = fld.neg(det)
        pv = m[col][col]
        det = fld.mul(det, pv)
        pv_inv = fld.inv(pv)
        for r in range(col + 1, n):
            factor = m[r][col]
            if factor == 0:
                continue
            scale = fld.mul(factor, pv_inv)
            for c in range(col, n):
                m[r][c] = fld.sub(m[r][c], fld.mul(scale, m[col][c]))
    return det


def mat_inv(fld: GfField, a: list[list[int]]) -> list[list[int]]:
    """Inverse by Gauss-Jordan; raises ZeroDivisionError if singular."""
    n = len(a)
    m = [row[:] + ident_row for row, ident_row in zip(a, mat_identity(fld, n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        pv_inv = fld.inv(m[col][col])
        m[col] = [fld.mul(pv_inv, v) for v in m[col]]
        for r in range(n):
            if r == col or m[r][col] == 0:
                continue
            factor = m[r][col]
            m[r] = [fld.sub(v, fld.mul(factor, w)) for v, w in zip(m[r], m[col])]
    return [row[n:] for row in m]

"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's algorithms: independence is
re-derived from adjacency rows, maximal independent sets come from a
full 2^n subset sweep, polynomial irreducibility is checked by
enumerating factor pairs or by trial division, and the reduced Euler
characteristic is
counted both from faces and from homology ranks.  Library outputs are
asserted against these.
"""

from __future__ import annotations

import itertools

from unitgraphs import graphs
from unitgraphs.complexes import reduced_homology_gf2


def build_plain_graph(ring, kind: str = "unit"):
    """graphs.build_graph without candidate automorphisms, so that every
    verdict search on it takes the plain path."""
    g = graphs.build_graph(ring, kind)
    return graphs.Graph(g.n, g.kind, g.rows, g.ring_expr)


def subset_is_independent(g, mask: int) -> bool:
    rest = mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        if g.rows[v] & mask:
            return False
        rest ^= low
    return True


def subset_is_maximal_independent(g, mask: int) -> bool:
    if not subset_is_independent(g, mask):
        return False
    for w in range(g.n):
        if (mask >> w) & 1:
            continue
        if g.rows[w] & mask == 0:
            return False
    return True


def all_mis_subsets(g) -> set[int]:
    """Every maximal independent set of a graph with at most ~20 vertices,
    by sweeping all subsets."""
    if g.n > 20:
        raise ValueError("subset oracle is for small graphs only")
    out = set()
    for mask in range(1 << g.n):
        if subset_is_maximal_independent(g, mask):
            out.add(mask)
    return out


def poly_is_irreducible_bruteforce(coeffs: tuple[int, ...], p: int) -> bool:
    """Degree-k monic polynomial is irreducible iff it is no product of
    two lower-degree monic polynomials; checked by enumerating all pairs."""
    k = len(coeffs) - 1
    assert coeffs[-1] == 1 and k >= 1
    for d1 in range(1, k):
        d2 = k - d1
        if d2 < d1:
            break
        for t1 in itertools.product(range(p), repeat=d1):
            g = list(t1) + [1]
            for t2 in itertools.product(range(p), repeat=d2):
                h = list(t2) + [1]
                prod = [0] * (k + 1)
                for i, gi in enumerate(g):
                    for j, hj in enumerate(h):
                        prod[i + j] = (prod[i + j] + gi * hj) % p
                if tuple(prod) == tuple(coeffs):
                    return False
    return True


def poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over GF(p), by long division; b
    is trimmed and nonzero."""
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    for shift in range(len(r) - len(b), -1, -1):
        coef = r[shift + len(b) - 1] * inv_lead % p
        q[shift] = coef
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - coef * bi) % p
    while r and r[-1] == 0:
        r.pop()
    while q and q[-1] == 0:
        q.pop()
    return q, r


def poly_is_irreducible_by_trial_division(coeffs, p: int) -> bool:
    """A monic polynomial of degree k >= 1 is irreducible iff no monic
    polynomial of degree 1..k//2 divides it."""
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not poly_divmod(list(coeffs), [*low, 1], p)[1]:
                return False
    return True


def smallest_irreducible_by_trial_division(p: int, k: int) -> tuple[int, ...]:
    """The monic irreducible of degree k over GF(p) whose low-first
    coefficient tuple is lexicographically smallest, by trying every
    tuple in order."""
    for low in itertools.product(range(p), repeat=k):
        if poly_is_irreducible_by_trial_division((*low, 1), p):
            return (*low, 1)
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


def matrix_unit_count(n: int, q: int) -> int:
    """The number of invertible n x n matrices over GF(q), counted by the
    rows-linearly-independent product formula."""
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def euler_characteristic_faces(c) -> int:
    """Reduced Euler characteristic from face counts (includes the empty
    face with sign -1)."""
    total = 0
    for f in c.faces():
        total += -1 if f.bit_count() % 2 == 0 else 1
    return total


def euler_characteristic_homology(c) -> int:
    """Reduced Euler characteristic as the alternating sum of the reduced
    GF(2) homology ranks."""
    total = 0
    for d, rank in enumerate(reduced_homology_gf2(c), start=-1):
        total += rank if d % 2 == 0 else -rank
    return total

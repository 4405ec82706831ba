"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's algorithms: independence is
re-derived from adjacency rows, maximal independent sets come from a
full 2^n subset sweep, a product is taken one pair at a time from the
definition of its ring kind, a sum and a negative one digit at a time
and the characteristic by adding 1 until the sum is 0, units and the Jacobson radical are scanned
from the definitions over rows of the multiplication table, polynomial
irreducibility is checked by enumerating factor pairs or by trial
division, and the reduced Euler characteristic is counted both from
faces and from homology ranks.  Library outputs are asserted against
these.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from unitgraphs import graphs, rings
from unitgraphs.bits import BITS_BLOCK, indices_mask, masks_to_bits, row_chunks
from unitgraphs.complexes import reduced_homology_gf2
from unitgraphs.rings import DEFAULT_ORDER_CAP, CapExceeded

# Elements per vectorized chunk of the table scans
CHUNK = 1 << 18


def _row_slices(count: int, width: int) -> list[slice]:
    """Slices of count rows of width entries, about CHUNK entries each."""
    step = max(1, CHUNK // width)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def add_by_digits(ring, x: int, y: int) -> int:
    """x + y one cyclic digit at a time, digit j of modulus
    ``_moduli[j]`` at place ``_places[j]``."""
    out = 0
    for pl, m in zip(ring._places, ring._moduli):
        out += ((x // pl + y // pl) % m) * pl
    return out


def neg_by_digits(ring, x: int) -> int:
    """-x one cyclic digit at a time."""
    out = 0
    for pl, m in zip(ring._places, ring._moduli):
        out += (-(x // pl) % m) * pl
    return out


def additive_order_of_one(ring) -> int:
    """The least k >= 1 with 1 + ... + 1 (k terms) = 0."""
    acc, k = ring.one, 1
    while acc != ring.zero:
        acc, k = add_by_digits(ring, acc, ring.one), k + 1
    return k


def product(ring, x: int, y: int) -> int:
    """x * y from the definition of the ring kind, one pair at a time:
    residues mod n for Zn, the field's scalar ``mul`` for GF(q), and for
    a composite ring the row-by-column, factor-wise or group-convolution
    product of the parts, each part product again by ``product``.  A
    quotient R/J(R) is the product of its blocks.  The rings'
    ``mul_many`` kernels are checked against this."""
    if isinstance(ring, rings.ZnRing):
        return x * y % ring.order
    if isinstance(ring, rings.GfRing):
        return ring.mul(x, y)
    a, b = ring.parts(x), ring.parts(y)
    if isinstance(ring, rings.ProductRing):
        return ring.from_parts([product(f, s, t) for f, s, t in zip(ring.factors, a, b)])
    if isinstance(ring, rings.MatRing):
        base, k = ring.base, ring.k
        out = []
        for i, j in itertools.product(range(k), repeat=2):
            acc = base.zero
            for l in range(k):
                acc = base.add(acc, product(base, a[i * k + l], b[l * k + j]))
            out.append(acc)
        return ring.from_parts(out)
    fld = ring.field  # a group algebra: a_g b_h lands on g * h
    out = [0] * ring.gorder
    for g, ag in enumerate(a):
        for h, bh in enumerate(b):
            t = ring.gtable[g][h]
            out[t] = fld.add(out[t], fld.mul(ag, bh))
    return ring.from_parts(out)


def mul_table(ring, xs=None) -> np.ndarray:
    """Rows of the multiplication table, built from ``mul_many``: row i
    lists xs[i] * r for every element r, as uint16 (indices stay below
    2^16).  xs defaults to every element, the full table.  Rings above
    DEFAULT_ORDER_CAP elements are refused."""
    n = ring.order
    if n > DEFAULT_ORDER_CAP:
        raise CapExceeded(
            f"{ring.expr}: no multiplication table above {DEFAULT_ORDER_CAP} elements"
        )
    idx = np.arange(n)
    xs = idx if xs is None else np.asarray(xs, dtype=np.int64)
    table = np.empty((len(xs), n), dtype=np.uint16)
    for rows in _row_slices(len(xs), n):
        table[rows] = ring.mul_many(xs[rows, None], idx)
    return table


def units_generic(ring, xs=None) -> int:
    """The units among xs (default every element) as a mask, by an
    inverse search straight from the definition."""
    xs = np.arange(ring.order) if xs is None else np.asarray(xs, dtype=np.int64)
    right = mul_table(ring, xs) == ring.one
    found = right.any(axis=1)
    # in a finite ring a one-sided inverse is two-sided; anything else
    # signals an arithmetic bug
    inverses = right.argmax(axis=1)[found]
    assert (ring.mul_many(inverses, xs[found]) == ring.one).all(), ring.expr
    return indices_mask(xs[found].tolist())


def radical_generic(ring, xs=None) -> int:
    """The members of J(R) among xs (default every element) as a mask:
    the x with 1 - x*r a unit for every r, the definition specialized to
    finite rings.  Units are read from ``ring.unit_set``, which
    ``units_generic`` checks."""
    xs = np.arange(ring.order) if xs is None else np.asarray(xs, dtype=np.int64)
    table = mul_table(ring, xs)
    units = ring.unit_set.bools()
    ok = np.empty(len(xs), dtype=bool)
    for rows in _row_slices(len(xs), ring.order):
        products = table[rows].astype(np.int64)  # x * r for x in rows, every r
        ok[rows] = units[ring.add_many(ring.one, ring.neg_many(products))].all(axis=1)
    return indices_mask(xs[ok].tolist())


def is_boolean_ring(ring) -> bool:
    """True iff every element is idempotent (finite case: ring = Z_2^k)."""
    idx = np.arange(ring.order)
    return bool(np.array_equal(ring.mul_many(idx, idx), idx))


def is_field(ring) -> bool:
    """True iff every nonzero element is a unit.  Such a finite ring is a
    division ring, hence commutative (Wedderburn's little theorem)."""
    return len(ring.unit_set) == ring.order - 1


def asymmetric_pair(g) -> tuple[int, int] | None:
    """The first (x, y) in row-major order with y in row x but x not in
    row y, or None when the adjacency is symmetric; the rows are
    unpacked BITS_BLOCK entries at a time."""
    n = g.n
    for rows in row_chunks(n, BITS_BLOCK):
        # rows lo.. of the matrix against its columns lo.., transposed
        mine = masks_to_bits(g.rows[rows], n)
        lo, width = rows.start, len(mine)
        strip = (1 << width) - 1
        theirs = masks_to_bits([(r >> lo) & strip for r in g.rows], width)
        xs, ys = np.nonzero(mine > theirs.T)
        if len(xs):
            return lo + int(xs[0]), int(ys[0])
    return None


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


def rows_from_json(text) -> tuple[dict, tuple[int, ...]]:
    """The payload of a ``graph_to_json`` export and the adjacency rows
    rebuilt from its edges, each a pair x < y of vertices listed once,
    in row-major order."""
    payload = json.loads(text)
    n, edges = payload["n"], payload["edges"]
    assert all(len(e) == 2 and 0 <= e[0] < e[1] < n for e in edges)
    assert edges == sorted(edges) and len(set(map(tuple, edges))) == len(edges)
    rows = [0] * n
    for x, y in edges:
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    return payload, tuple(rows)

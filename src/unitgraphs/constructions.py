"""Explicit maximal-independent-set constructions, each verified.

Every function here *constructs* a set by a closed-form recipe and then
*checks* the claimed property with the independent-set predicates, so a
successful return certifies the recipe on that input.  Failures raise
ConstructionError rather than returning unverified data.

The recipes:

* ``signature_set``       -- the 2^n diagonal matrices with +-1 entries
  form a maximal independent set of the unit graph of M_n(F) when
  char(F) is odd.
* ``zero_first_row_set``  -- the q^(n^2-n) matrices with first row zero
  form a maximal independent set of that unit graph in any
  characteristic.
* ``product_nonunit_extend`` / ``product_unit_sets`` -- extend maximal
  independent sets of factors to the product ring: a non-unit one in a
  single coordinate with everything else free, or (when 2 is a unit) a
  Cartesian product of all-unit ones.
* ``lift_nonunit_mis`` / ``lift_unit_mis_reps`` -- move maximal
  independent sets of R/J(R) back to R: a non-unit set lifts to the
  union of its radical cosets, an all-unit set (when 2 is a unit in R)
  lifts to any transversal, here the canonical smallest-index one.
* ``nonunit_complement_witness`` -- in a semisimple ring, its own
  R/J(R), every nonzero non-unit y admits a non-unit z with y + z a
  unit; each block of z is a 0/1 matrix read off one forward row
  reduction of the block of y in ``quotient_by_radical``.
* ``mixed_char_product_witnesses`` -- for semisimple R, S with
  char(R) = 2 and char(S) odd, two maximal independent sets of the unit
  graph of R x S with different sizes (so that graph is not
  well-covered), built from the zero-first-row set of R's leading block
  of R/J(R).
* ``two_size_witnesses``  -- for any supported ring in which 2 is a
  unit, two maximal independent sets of different sizes, produced by
  running the signature and zero-first-row constructions inside the
  semisimple quotient and lifting both.
"""

from __future__ import annotations

import itertools

from .bits import HARD_ORDER_CAP, VertexSet
from .descriptors import Gf, Mat, Product
from .graphs import build_graph
from .indsets import is_maximal_independent
from .rings import (
    GfRing,
    MatRing,
    ProductRing,
    QuotientRing,
    Ring,
    build_ring,
    quotient_by_radical,
)


class ConstructionError(Exception):
    pass


def _require_mis(ring: Ring, s: VertexSet, what: str) -> None:
    if not is_maximal_independent(build_graph(ring, "unit"), s):
        raise ConstructionError(
            f"{what} is not a maximal independent set of the unit graph of "
            f"{ring.expr}"
        )


def _require_semisimple(ring: Ring, name: str) -> QuotientRing:
    """R/J(R) of a semisimple ring, whose representatives are R itself."""
    quotient = quotient_by_radical(ring)
    if quotient.order != ring.order:
        raise ConstructionError(f"{name} = {ring.expr} is not semisimple")
    return quotient


# ---------------------------------------------------------------------------
# matrix-ring constructions
# ---------------------------------------------------------------------------

def matrix_ring(n: int, q: int) -> Ring:
    """The canonical home of the matrix constructions below.

    Built at the arithmetic cap: the recipes need only element encoding,
    while eager verification additionally needs the ring to fit the
    graph cap (pass verify=False above it).
    """
    return build_ring(Mat(n, Gf(q)), order_cap=HARD_ORDER_CAP)


def signature_set(n: int, q: int, verify: bool = True) -> VertexSet:
    """Diagonal +-1 matrices inside M_n(GF(q)); refuses characteristic 2,
    where +1 = -1 collapses the set to the identity."""
    ring = matrix_ring(n, q)
    assert isinstance(ring, MatRing)
    fld = ring.base
    if fld.p == 2:
        raise ConstructionError(
            "signature matrices need odd characteristic (in characteristic "
            "2 the set degenerates to the identity)"
        )
    plus, minus = fld.one, fld.neg(fld.one)
    members = []
    for signs in itertools.product((plus, minus), repeat=n):
        entries = itertools.product(range(n), repeat=2)
        members.append(ring.from_parts([signs[i] if i == j else 0 for i, j in entries]))
    out = VertexSet.from_indices(members, ring.order)
    if len(out) != 2**n:
        raise ConstructionError("signature set has the wrong cardinality")
    if verify:
        _require_mis(ring, out, "the signature set")
    return out


def zero_first_row_set(n: int, q: int, verify: bool = True) -> VertexSet:
    """All matrices in M_n(GF(q)) whose first row is zero; size q^(n^2-n)."""
    ring = matrix_ring(n, q)
    # first-row entries occupy the n least significant base-q digits
    stride = q**n
    members = [m * stride for m in range(q ** (n * n - n))]
    out = VertexSet.from_indices(members, ring.order)
    if verify:
        _require_mis(ring, out, "the zero-first-row set")
    return out


# ---------------------------------------------------------------------------
# product-ring constructions
# ---------------------------------------------------------------------------

def _product_ring(rings) -> ProductRing:
    return build_ring(Product(tuple(r.descriptor for r in rings)))


def product_nonunit_extend(
    rings, i: int, m_i: VertexSet, verify: bool = True
) -> VertexSet:
    """R_0 x ... x M_i x ... x R_{t-1}: fix a non-unit maximal independent
    set in coordinate i (0-based), leave every other coordinate free."""
    rings = list(rings)
    if not 0 <= i < len(rings):
        raise ConstructionError(f"factor position {i} out of range")
    target = rings[i]
    if m_i.universe != target.order:
        raise ConstructionError("set universe does not match the chosen factor")
    if m_i.mask & target.unit_set.mask:
        raise ConstructionError("set must avoid the units of its factor")
    if verify:
        _require_mis(target, m_i, "the factor set")
    prod = _product_ring(rings)
    choices = [
        m_i.indices() if j == i else range(r.order) for j, r in enumerate(rings)
    ]
    members = [prod.from_parts(combo) for combo in itertools.product(*choices)]
    out = VertexSet.from_indices(members, prod.order)
    if verify:
        _require_mis(prod, out, "the extended product set")
    return out


def product_unit_sets(rings, sets, verify: bool = True) -> VertexSet:
    """Cartesian product of all-unit maximal independent sets; requires
    2 to be a unit of the product ring."""
    rings = list(rings)
    sets = list(sets)
    if len(rings) != len(sets):
        raise ConstructionError("one set per factor is required")
    prod = _product_ring(rings)
    two = prod.add(prod.one, prod.one)
    if not prod.is_unit(two):
        raise ConstructionError("2 is a zero divisor in the product ring")
    for r, s in zip(rings, sets):
        if s.universe != r.order:
            raise ConstructionError("set universe does not match its factor")
        if s.mask & ~r.unit_set.mask:
            raise ConstructionError("sets must consist of units")
        if verify:
            _require_mis(r, s, "a factor set")
    members = [prod.from_parts(c) for c in itertools.product(*[s.indices() for s in sets])]
    out = VertexSet.from_indices(members, prod.order)
    if verify:
        _require_mis(prod, out, "the product set")
    return out


# ---------------------------------------------------------------------------
# radical lifting
# ---------------------------------------------------------------------------

def lift_nonunit_mis(
    ring: Ring, quotient_mis: VertexSet, verify: bool = True
) -> VertexSet:
    """Union of the radical cosets of a non-unit maximal independent set
    of the unit graph of R/J(R); size |set| * |J(R)|."""
    quot = quotient_by_radical(ring)
    _check_quotient_set(quot, quotient_mis, want_units=False, verify=verify)
    rad = quot.radical.indices()
    members = [
        ring.add(quot.representatives[a], j) for a in quotient_mis for j in rad
    ]
    out = VertexSet.from_indices(members, ring.order)
    if len(out) != len(quotient_mis) * len(rad):
        raise ConstructionError("coset union has the wrong cardinality")
    if verify:
        _require_mis(ring, out, "the lifted coset union")
    return out


def lift_unit_mis_reps(
    ring: Ring, quotient_mis: VertexSet, verify: bool = True
) -> VertexSet:
    """Canonical (smallest-index) representatives of an all-unit maximal
    independent set of the unit graph of R/J(R); needs 2 a unit in R."""
    two = ring.add(ring.one, ring.one)
    if not ring.is_unit(two):
        raise ConstructionError("2 must be a unit to lift by representatives")
    quot = quotient_by_radical(ring)
    _check_quotient_set(quot, quotient_mis, want_units=True, verify=verify)
    members = [quot.representatives[a] for a in quotient_mis]
    out = VertexSet.from_indices(members, ring.order)
    if len(out) != len(quotient_mis):
        raise ConstructionError("representative lift changed the cardinality")
    if verify:
        _require_mis(ring, out, "the representative lift")
    return out


def _check_quotient_set(
    quot: QuotientRing, s: VertexSet, want_units: bool, verify: bool
) -> None:
    if s.universe != quot.order:
        raise ConstructionError(
            "set must be given in quotient-ring indices "
            f"(universe {quot.order}, got {s.universe})"
        )
    units = quot.unit_set.mask
    if want_units and s.mask & ~units:
        raise ConstructionError("set must consist of units of the quotient")
    if not want_units and s.mask & units:
        raise ConstructionError("set must avoid the units of the quotient")
    if verify:
        _require_mis(quot, s, "the quotient set")


# ---------------------------------------------------------------------------
# the complement witness
# ---------------------------------------------------------------------------

def _complement_block(fld: GfRing, size: int, value: int) -> int:
    """The 0/1 block Z with A + Z invertible, for the size x size block A
    of index ``value``: entry (i, j) is base-q digit i * size + j, as
    ``MatRing`` encodes it, and a field element is a 1 x 1 block.

    One pass reduces each row of A against the echelon basis of the rows
    above it.  A row that reduces to zero is dependent; any other joins
    the basis, scaled to 1 at its lead column.  Z has a one at (i_j, d_j)
    for the j-th dependent row i_j and the j-th column d_j that leads no
    basis row.  Every dependent row lies in the row space V of A, and V
    plus the span of those columns' unit vectors is the whole space, so
    the rows of A + Z span it.
    """
    q = fld.order
    basis: list[tuple[int, list[int]]] = []
    dependent = []
    for i in range(size):
        row = [value // q ** (i * size + j) % q for j in range(size)]
        for lead, b in basis:
            f = row[lead]
            if f:
                row = [fld.sub(v, fld.mul(f, w)) for v, w in zip(row, b)]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            dependent.append(i)
        else:
            inv = fld.inv(row[lead])
            basis.append((lead, [fld.mul(inv, v) for v in row]))
    leads = {lead for lead, _ in basis}
    free = [j for j in range(size) if j not in leads]
    return sum(q ** (i * size + j) for i, j in zip(dependent, free))


def nonunit_complement_witness(s_ring: Ring, y: int, verify: bool = True) -> int:
    """For a nonzero non-unit y of a semisimple ring, a non-unit z with
    y + z a unit.

    R is its own R/J(R) = M_{n_1}(F_1) x ... x M_{n_t}(F_t), and each
    block A of y there gets the 0/1 block of ``_complement_block``, of
    rank n_i - rank(A): the identity when A is zero, zero when A is
    invertible, and a singular nonzero block otherwise.  Some block of y
    is nonzero, so its block of z is singular and z is a non-unit.
    """
    if y == s_ring.zero:
        raise ConstructionError("y must be nonzero")
    if s_ring.is_unit(y):
        raise ConstructionError("y must not be a unit")
    quotient = _require_semisimple(s_ring, "R")
    rings, images = quotient.factors, s_ring.block_images
    blocks = [
        _complement_block(r if n == 1 else r.base, n, int(image[y]))
        for (n, _), r, image in zip(quotient.blocks, rings, images)
    ]
    z = quotient.representatives[quotient.from_parts(blocks)]
    if verify:
        if s_ring.is_unit(z):
            raise ConstructionError("witness came out a unit")
        if not s_ring.is_unit(s_ring.add(y, z)):
            raise ConstructionError("y + witness is not a unit")
    return z


# ---------------------------------------------------------------------------
# non-well-covered witnesses
# ---------------------------------------------------------------------------

def _zero_row_set(quotient: QuotientRing) -> VertexSet:
    """The zero-first-row set of the leading block of R/J(R) times the
    other blocks: a non-unit maximal independent set of R/J(R)."""
    lead_zero_rows = zero_first_row_set(*quotient.blocks[0], verify=False).indices()
    rest = [range(r.order) for r in quotient.factors[1:]]
    return VertexSet.from_indices(
        [
            quotient.from_parts([first, *others])
            for first in lead_zero_rows
            for others in itertools.product(*rest)
        ],
        quotient.order,
    )


def mixed_char_product_witnesses(
    r_ring: Ring, s_ring: Ring, verify: bool = True
) -> tuple[VertexSet, VertexSet]:
    """Two different-size maximal independent sets of the unit graph of
    R x S, for semisimple R of characteristic 2 and semisimple S of odd
    characteristic.

    The first is M x S, where M is the zero-first-row set of the leading
    block of R = R/J(R) times the other blocks; the second is (R x {0})
    union (M x X), X the non-units of S.  The sizes |M||S| and
    |R| + |M||X| - |M| differ in parity: the graph is not well-covered.
    """
    quotient = _require_semisimple(r_ring, "R")
    _require_semisimple(s_ring, "S")
    if r_ring.characteristic != 2:
        raise ConstructionError("R must have characteristic 2")
    if s_ring.characteristic % 2 == 0:
        raise ConstructionError("S must have odd characteristic")
    # checked below as part of both witnesses
    m_set = lift_nonunit_mis(r_ring, _zero_row_set(quotient), verify=False)
    prod = _product_ring([r_ring, s_ring])

    def pairs(firsts, seconds) -> set[int]:
        return {prod.from_parts([a, b]) for a in firsts for b in seconds}

    m_times_s = VertexSet.from_indices(pairs(m_set, range(s_ring.order)), prod.order)
    nonunits = [b for b in range(s_ring.order) if not s_ring.is_unit(b)]
    n_set = VertexSet.from_indices(
        pairs(range(r_ring.order), [s_ring.zero]) | pairs(m_set, nonunits), prod.order
    )
    expected = r_ring.order + len(m_set) * len(nonunits) - len(m_set)
    if len(n_set) != expected:
        raise ConstructionError("second witness has the wrong cardinality")
    if len(m_times_s) == len(n_set):
        raise ConstructionError("witness sizes unexpectedly agree")
    if verify:
        _require_mis(prod, m_times_s, "the first witness")
        _require_mis(prod, n_set, "the second witness")
    return m_times_s, n_set


def two_size_witnesses(
    ring: Ring, verify: bool = True
) -> tuple[VertexSet, VertexSet]:
    """Two different-size maximal independent sets of the unit graph of
    any supported ring in which 2 is a unit (hence: not well-covered).

    Inside the semisimple quotient, the product of the blocks' signature
    sets is an all-unit maximal independent set of size prod 2^(n_i); the
    zero-first-row set of the leading block times the remaining blocks is
    a non-unit one of odd size.  The quotient is indexed by the block
    product, so both are quotient sets as they stand; both lift to the
    ring.
    """
    two = ring.add(ring.one, ring.one)
    if not ring.is_unit(two):
        raise ConstructionError("2 must be a unit")
    # 2 is a unit in every block, so every q is odd
    quotient = quotient_by_radical(ring)
    block_sign_sets = [
        signature_set(n, q, verify=False).indices() for n, q in quotient.blocks
    ]
    sig_quotient = VertexSet.from_indices(
        [quotient.from_parts(c) for c in itertools.product(*block_sign_sets)], quotient.order
    )
    zero_quotient = _zero_row_set(quotient)
    # both sets are checked once, in R: R/J(R) would need a second graph
    unit_lift = lift_unit_mis_reps(ring, sig_quotient, verify=False)
    nonunit_lift = lift_nonunit_mis(ring, zero_quotient, verify=False)
    if verify:
        _require_mis(ring, unit_lift, "the lifted signature set")
        _require_mis(ring, nonunit_lift, "the lifted zero-first-row set")
    if len(unit_lift) != 2 ** sum(n for n, _ in quotient.blocks):
        raise ConstructionError("signature lift has the wrong cardinality")
    if len(zero_quotient) % 2 == 0:
        raise ConstructionError("non-unit witness size should be odd")
    if len(unit_lift) == len(nonunit_lift):
        raise ConstructionError("witness sizes unexpectedly agree")
    return unit_lift, nonunit_lift

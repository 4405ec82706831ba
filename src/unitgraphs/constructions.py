"""Explicit maximal-independent-set constructions, each verified.

Every function here *constructs* a set by a closed-form recipe and then
*checks* the claimed property with the independent-set predicates, once,
in the ring it returns the set in, so a successful return certifies the
recipe on that input; a ring above the graph cap raises GraphError.
Failures, and arguments of the wrong type, raise ConstructionError
rather than returning unverified data.

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


def _arg(value, kind, name: str):
    """value, refused unless it is an instance of kind (a type or a tuple
    of types); for kind int, exactly an int, as True is no index."""
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        raise ConstructionError(f"bad {name} {value!r}")
    return value


def _require_mis(ring: Ring, s: VertexSet, what: str) -> VertexSet:
    """s, once certified a maximal independent set of the unit graph of
    ring."""
    if not is_maximal_independent(build_graph(ring, "unit"), s):
        raise ConstructionError(
            f"{what} is not a maximal independent set of the unit graph of "
            f"{ring.expr}"
        )
    return s


def _require_semisimple(ring: Ring, name: str) -> QuotientRing:
    """R/J(R) of a semisimple ring, whose representatives are R itself."""
    quotient = quotient_by_radical(_arg(ring, Ring, name))
    if quotient.order != ring.order:
        raise ConstructionError(f"{name} = {ring.expr} is not semisimple")
    return quotient


# ---------------------------------------------------------------------------
# matrix-ring constructions
# ---------------------------------------------------------------------------

def matrix_ring(n: int, q: int) -> Ring:
    """The canonical home of the matrix constructions below.

    Built at the arithmetic cap, which the recipes' element encoding
    needs; certifying a set needs the unit graph as well, so a recipe
    above the graph cap raises GraphError.
    """
    return build_ring(Mat(_arg(n, int, "n"), Gf(_arg(q, int, "q"))), order_cap=HARD_ORDER_CAP)


def signature_set(n: int, q: int) -> VertexSet:
    """Diagonal +-1 matrices inside M_n(GF(q)); refuses characteristic 2,
    where +1 = -1 collapses the set to the identity."""
    return _require_mis(matrix_ring(n, q), _signature_members(n, q), "the signature set")


def _signature_members(n: int, q: int) -> VertexSet:
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
    return out


def zero_first_row_set(n: int, q: int) -> VertexSet:
    """All matrices in M_n(GF(q)) whose first row is zero; size q^(n^2-n)."""
    return _require_mis(matrix_ring(n, q), _zero_row_members(n, q), "the zero-first-row set")


def _zero_row_members(n: int, q: int) -> VertexSet:
    # first-row entries occupy the n least significant base-q digits
    return VertexSet.from_indices(range(0, q ** (n * n), q**n), q ** (n * n))


# ---------------------------------------------------------------------------
# product-ring constructions
# ---------------------------------------------------------------------------

def _factors(rings) -> list[Ring]:
    return [_arg(r, Ring, "factor") for r in _arg(rings, (list, tuple), "factor list")]


def _product_ring(rings) -> ProductRing:
    return build_ring(Product(tuple(r.descriptor for r in rings)))


def product_nonunit_extend(rings, i: int, m_i: VertexSet) -> VertexSet:
    """R_0 x ... x M_i x ... x R_{t-1}: fix a non-unit maximal independent
    set in coordinate i (0-based), leave every other coordinate free."""
    rings = _factors(rings)
    if not 0 <= _arg(i, int, "factor position") < len(rings):
        raise ConstructionError(f"factor position {i} out of range")
    target = rings[i]
    if _arg(m_i, VertexSet, "factor set").universe != target.order:
        raise ConstructionError("set universe does not match the chosen factor")
    if m_i.mask & target.unit_set.mask:
        raise ConstructionError("set must avoid the units of its factor")
    _require_mis(target, m_i, "the factor set")
    prod = _product_ring(rings)
    choices = [
        m_i.indices() if j == i else range(r.order) for j, r in enumerate(rings)
    ]
    members = [prod.from_parts(combo) for combo in itertools.product(*choices)]
    out = VertexSet.from_indices(members, prod.order)
    return _require_mis(prod, out, "the extended product set")


def product_unit_sets(rings, sets) -> VertexSet:
    """Cartesian product of all-unit maximal independent sets; requires
    2 to be a unit of the product ring."""
    rings = _factors(rings)
    sets = [_arg(s, VertexSet, "factor set") for s in _arg(sets, (list, tuple), "set list")]
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
        _require_mis(r, s, "a factor set")
    members = [prod.from_parts(c) for c in itertools.product(*[s.indices() for s in sets])]
    out = VertexSet.from_indices(members, prod.order)
    return _require_mis(prod, out, "the product set")


# ---------------------------------------------------------------------------
# radical lifting
# ---------------------------------------------------------------------------

def lift_nonunit_mis(ring: Ring, quotient_mis: VertexSet) -> VertexSet:
    """Union of the radical cosets of a non-unit maximal independent set
    of the unit graph of R/J(R); size |set| * |J(R)|."""
    out = _coset_union(ring, quotient_mis)
    _require_mis(quotient_by_radical(ring), quotient_mis, "the quotient set")
    return _require_mis(ring, out, "the lifted coset union")


def _coset_union(ring: Ring, quotient_set: VertexSet) -> VertexSet:
    quot = _check_quotient_set(ring, quotient_set, want_units=False)
    rad = quot.radical.indices()
    members = [
        ring.add(quot.representatives[a], j) for a in quotient_set for j in rad
    ]
    out = VertexSet.from_indices(members, ring.order)
    if len(out) != len(quotient_set) * len(rad):
        raise ConstructionError("coset union has the wrong cardinality")
    return out


def lift_unit_mis_reps(ring: Ring, quotient_mis: VertexSet) -> VertexSet:
    """Canonical (smallest-index) representatives of an all-unit maximal
    independent set of the unit graph of R/J(R); needs 2 a unit in R."""
    two = _arg(ring, Ring, "ring").add(ring.one, ring.one)
    if not ring.is_unit(two):
        raise ConstructionError("2 must be a unit to lift by representatives")
    out = _representative_lift(ring, quotient_mis)
    _require_mis(quotient_by_radical(ring), quotient_mis, "the quotient set")
    return _require_mis(ring, out, "the representative lift")


def _representative_lift(ring: Ring, quotient_set: VertexSet) -> VertexSet:
    quot = _check_quotient_set(ring, quotient_set, want_units=True)
    out = VertexSet.from_indices([quot.representatives[a] for a in quotient_set], ring.order)
    if len(out) != len(quotient_set):
        raise ConstructionError("representative lift changed the cardinality")
    return out


def _check_quotient_set(ring: Ring, s: VertexSet, want_units: bool) -> QuotientRing:
    """R/J(R), once s is a set of its units (want_units) or of its
    non-units."""
    quot = quotient_by_radical(_arg(ring, Ring, "ring"))
    if _arg(s, VertexSet, "quotient set").universe != quot.order:
        raise ConstructionError(
            "set must be given in quotient-ring indices "
            f"(universe {quot.order}, got {s.universe})"
        )
    units = quot.unit_set.mask
    if want_units and s.mask & ~units:
        raise ConstructionError("set must consist of units of the quotient")
    if not want_units and s.mask & units:
        raise ConstructionError("set must avoid the units of the quotient")
    return quot


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


def nonunit_complement_witness(s_ring: Ring, y: int) -> int:
    """For a nonzero non-unit y of a semisimple ring, a non-unit z with
    y + z a unit.

    R is its own R/J(R) = M_{n_1}(F_1) x ... x M_{n_t}(F_t), and each
    block A of y there gets the 0/1 block of ``_complement_block``, of
    rank n_i - rank(A): the identity when A is zero, zero when A is
    invertible, and a singular nonzero block otherwise.  Some block of y
    is nonzero, so its block of z is singular and z is a non-unit.
    """
    _arg(s_ring, Ring, "R")
    if _arg(y, int, "y") == s_ring.zero:
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
    lead_zero_rows = _zero_row_members(*quotient.blocks[0]).indices()
    rest = [range(r.order) for r in quotient.factors[1:]]
    return VertexSet.from_indices(
        [
            quotient.from_parts([first, *others])
            for first in lead_zero_rows
            for others in itertools.product(*rest)
        ],
        quotient.order,
    )


def mixed_char_product_witnesses(r_ring: Ring, s_ring: Ring) -> tuple[VertexSet, VertexSet]:
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
    m_set = _coset_union(r_ring, _zero_row_set(quotient))
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
    _require_mis(prod, m_times_s, "the first witness")
    return m_times_s, _require_mis(prod, n_set, "the second witness")


def two_size_witnesses(ring: Ring) -> tuple[VertexSet, VertexSet]:
    """Two different-size maximal independent sets of the unit graph of
    any supported ring in which 2 is a unit (hence: not well-covered).

    Inside the semisimple quotient, the product of the blocks' signature
    sets is an all-unit maximal independent set of size prod 2^(n_i); the
    zero-first-row set of the leading block times the remaining blocks is
    a non-unit one of odd size.  The quotient is indexed by the block
    product, so both are quotient sets as they stand; both lift to the
    ring.
    """
    two = _arg(ring, Ring, "ring").add(ring.one, ring.one)
    if not ring.is_unit(two):
        raise ConstructionError("2 must be a unit")
    # 2 is a unit in every block, so every q is odd
    quotient = quotient_by_radical(ring)
    block_sign_sets = [
        _signature_members(n, q).indices() for n, q in quotient.blocks
    ]
    sig_quotient = VertexSet.from_indices(
        [quotient.from_parts(c) for c in itertools.product(*block_sign_sets)], quotient.order
    )
    zero_quotient = _zero_row_set(quotient)
    # both sets are checked once, in R: R/J(R) would need a second graph
    unit_lift = _representative_lift(ring, sig_quotient)
    nonunit_lift = _coset_union(ring, zero_quotient)
    _require_mis(ring, unit_lift, "the lifted signature set")
    _require_mis(ring, nonunit_lift, "the lifted zero-first-row set")
    if len(unit_lift) != 2 ** sum(n for n, _ in quotient.blocks):
        raise ConstructionError("signature lift has the wrong cardinality")
    if len(zero_quotient) % 2 == 0:
        raise ConstructionError("non-unit witness size should be odd")
    if len(unit_lift) == len(nonunit_lift):
        raise ConstructionError("witness sizes unexpectedly agree")
    return unit_lift, nonunit_lift

import json
import random
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    is_boolean_ring,
    is_field,
    matrix_unit_count,
    mul_table,
    product,
    radical_generic,
    units_generic,
)
from unitgraphs import cli, rings
from unitgraphs.bits import HARD_ORDER_CAP, VertexSet, indices_mask, mask_indices, shift_mask
from unitgraphs.classify import classify_cm, cross_validate
from unitgraphs.constructions import two_size_witnesses
from unitgraphs.descriptors import (
    D4, Cn, Gf, GroupAlgebra, Mat, Product, Q8, Zn, descriptor_order, prime_power,
    semisimple_blocks,
)
from unitgraphs.dsl import parse_ring_expr
from unitgraphs.rings import (
    CapExceeded,
    RingError,
    UnsupportedStructure,
    build_ring,
    jacobson_radical,
    quotient_by_radical,
    semisimple_images,
)
from unitgraphs.wedderburn import semisimple_form, wedderburn_shape

EXHAUSTIVE_ORDER = 64
SAMPLED_TRIPLES = 10_000


def _axiom_triples(ring):
    """Every triple of elements at small order, else a sample, as three
    index arrays."""
    n = ring.order
    if n <= EXHAUSTIVE_ORDER:
        return np.indices((n, n, n)).reshape(3, -1)
    return np.random.default_rng(20240917).integers(0, n, (3, SAMPLED_TRIPLES))


def test_ring_axioms_hold_across_catalog(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        add, mul = ring.add_many, ring.mul_many
        x, y, z = _axiom_triples(ring)
        assert np.array_equal(add(add(x, y), z), add(x, add(y, z))), expr
        assert np.array_equal(add(x, y), add(y, x)), expr
        assert np.array_equal(mul(mul(x, y), z), mul(x, mul(y, z))), expr
        assert np.array_equal(mul(x, add(y, z)), add(mul(x, y), mul(x, z))), expr
        assert np.array_equal(mul(add(x, y), z), add(mul(x, z), mul(y, z))), expr
        every = np.arange(ring.order)
        assert np.array_equal(add(every, ring.zero), every), expr
        assert (add(every, ring.neg_many(every)) == ring.zero).all(), expr
        assert np.array_equal(mul(every, ring.one), every), expr
        assert np.array_equal(mul(ring.one, every), every), expr


def test_translates_match_scalar_addition(catalog_descriptors):
    rng = random.Random(20261018)
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        for r in (ring, quotient_by_radical(ring)):
            n = r.order
            for mask in (r.unit_set.mask, rng.getrandbits(n)):
                members = VertexSet(mask, n).indices()
                want = [sum(1 << r.add(x, s) for s in members) for x in range(n)]
                assert r.translates(mask) == want, (expr, r)


def _lowest_bit_walk(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# popcounts on both sides of the 32-bit cutoff between the two walks
@st.composite
def _wide_masks(draw):
    width = draw(st.integers(0, 4096))
    count = min(width, draw(st.sampled_from([0, 1, 2, 31, 32, 33, 34, width // 2, width])))
    seed = draw(st.integers(0, 2**32 - 1))
    return sum(1 << v for v in random.Random(seed).sample(range(width), count))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_wide_masks())
@example(0)
@example(1)
@example((1 << 32) - 1)
@example((1 << 33) - 1)
@example(1 << 4095)
@example((1 << 4096) - 1)
@example(sum(1 << (128 * i) for i in range(32)))
@example(sum(1 << (124 * i) for i in range(33)))
def test_mask_indices_is_the_lowest_bit_walk(mask):
    assert mask_indices(mask) == _lowest_bit_walk(mask)


def test_shift_mask_is_the_translation_by_each_digit():
    # the translation of place_translations entry j adds the element whose
    # digit j is 1, the element whose index is that digit's place
    rng = random.Random(20261019)
    for expr in ("Z12", "GF(9)", "Z2 x Z2 x Z2", "M2(GF(3))", "M2(Z4)", "Z4 x GF(4)",
                 "GA(GF(2), Q8)"):
        ring = build_ring(parse_ring_expr(expr))
        n = ring.order
        assert len(ring._places) == len(ring.place_translations), expr
        for place, shift in zip(ring._places, ring.place_translations):
            for x in range(n):
                assert shift_mask(1 << x, shift) == 1 << ring.add(x, place), (expr, x)
            mask = rng.getrandbits(n)
            want = sum(1 << ring.add(x, place) for x in _lowest_bit_walk(mask))
            assert shift_mask(mask, shift) == want, expr


def test_mul_table_matches_scalar_mul(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 100:
            continue
        table = mul_table(ring)
        for x in range(ring.order):
            for y in range(ring.order):
                assert table[x, y] == product(ring, x, y), expr


def test_mul_table_matches_scalar_sampled_large(catalog_descriptors):
    rng = random.Random(7)
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order <= 100:
            continue
        table = mul_table(ring)
        for _ in range(2000):
            x, y = rng.randrange(ring.order), rng.randrange(ring.order)
            assert table[x, y] == product(ring, x, y), expr


KERNEL_RINGS = ("GF(4096)", "M2(Z8)", "Z9 x M2(Z4)", "GA(GF(2), C12)")


def test_mul_many_matches_scalar_without_tables():
    rng = np.random.default_rng(11)
    for expr in KERNEL_RINGS:
        ring = build_ring(parse_ring_expr(expr))
        xs = rng.integers(0, ring.order, 2000)
        ys = rng.integers(0, ring.order, 2000)
        got = ring.mul_many(xs, ys)
        for x, y, z in zip(xs, ys, got):
            assert z == product(ring, int(x), int(y)), (expr, x, y)


def test_units_are_elements_with_a_right_inverse():
    rng = np.random.default_rng(5)
    for expr in ("M2(Z8)", "Z9 x M2(Z4)", "GA(GF(2), C12)", "GA(GF(3), C7)"):
        ring = build_ring(parse_ring_expr(expr))
        everything = np.arange(ring.order)
        for x in rng.integers(0, ring.order, 200):
            has_inverse = ring.one in ring.mul_many(int(x), everything)
            assert ring.is_unit(int(x)) == has_inverse, (expr, x)


def test_definitional_scans_refuse_rings_above_the_default_cap():
    start = time.monotonic()
    zn = build_ring(Zn(5000), order_cap=HARD_ORDER_CAP)
    with pytest.raises(CapExceeded):
        units_generic(zn)
    with pytest.raises(CapExceeded):
        radical_generic(zn, [0])
    ga = build_ring(GroupAlgebra(2, Cn(13)), order_cap=HARD_ORDER_CAP)
    # units from the blocks GF(2) x GF(2^12): nonzero augmentation and
    # nonzero image in the big field
    assert len(ga.unit_set) == 4095
    with pytest.raises(CapExceeded):
        units_generic(ga)
    assert time.monotonic() - start < 1.0


def test_vectorized_add_rows_match_scalar(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        for x in (0, 1, ring.order // 2, ring.order - 1):
            idx = np.arange(ring.order)
            row = ring.add_many(x, idx)
            sub = ring.add_many(x, ring.neg_many(idx))
            for y in range(0, ring.order, max(1, ring.order // 37)):
                assert row[y] == ring.add(x, y), expr
                assert sub[y] == ring.sub(x, y), expr


def test_build_examples():
    z4 = build_ring(Zn(4))
    assert z4.order == 4 and z4.unit_set.indices() == [1, 3]
    g4 = build_ring(Gf(4))
    assert g4.order == 4 and g4.characteristic == 2
    assert len(g4.unit_set) == 3
    m22 = build_ring(Mat(2, Gf(2)))
    assert m22.order == 16 and len(m22.unit_set) == 6


@pytest.mark.parametrize("expr, x, text", [
    ("GF(9)", 5, "2+g"), ("GF(9)", 7, "1+2g"), ("GF(8)", 6, "g+g^2"),
    ("GA(GF(2), C3)", 0, "0"), ("GA(GF(2), C3)", 5, "1+g^2"),
    ("GA(GF(2), D4)", 16, "b"), ("GA(GF(2), D4)", 255, "1+a+a^2+a^3+b+ab+a^2b+a^3b"),
    ("GA(GF(2), Q8)", 128, "a^3b"),
])
def test_element_repr_names_powers_and_group_elements(expr, x, text):
    # field terms above degree 0, zero coefficients skipped, D4/Q8 names
    assert build_ring(parse_ring_expr(expr)).element_repr(x) == text


def test_zn2_and_gf2_realize_identical_arithmetic():
    a, b = build_ring(Zn(2)), build_ring(Gf(2))
    assert a.order == b.order == 2
    assert np.array_equal(mul_table(a), mul_table(b))
    idx = np.arange(2)
    assert np.array_equal(
        a.add_many(idx[:, None], idx), b.add_many(idx[:, None], idx)
    )
    assert a.unit_set.mask == b.unit_set.mask


def test_order_cap():
    with pytest.raises(CapExceeded):
        build_ring(Zn(5000))
    assert build_ring(Zn(5000), order_cap=1 << 16).order == 5000
    with pytest.raises(CapExceeded):
        build_ring(Mat(3, Zn(8)), order_cap=1 << 16)  # 8^9 is over every cap


def test_order_cap_must_be_an_int():
    for cap in ("x", None, 4.0, True):
        with pytest.raises(RingError, match="bad order_cap"):
            build_ring(Zn(4), order_cap=cap)


# one ring of each kind; each also gives its quotient by the radical
KIND_EXPRS = ("Z4", "GF(5)", "GF(4)", "M2(Z4)", "Z2 x Z3", "GA(GF(2), C3)")


def test_scalar_arithmetic_refuses_an_index_outside_the_ring():
    for expr in KIND_EXPRS:
        ring = build_ring(parse_ring_expr(expr))
        for r in (ring, quotient_by_radical(ring)):
            last = r.order - 1
            assert r.mul(last, r.one) == r.add(last, r.zero) == r.neg(r.neg(last)) == last
            for bad in (-1, r.order, 2 * r.order + 1):
                calls = (
                    lambda: r.add(1, bad), lambda: r.add(bad, 0), lambda: r.neg(bad),
                    lambda: r.mul(1, bad), lambda: r.mul(bad, 1),
                )
                for call in calls:
                    with pytest.raises(RingError, match=f"element index {bad} out of range"):
                        call()
    for q in (5, 4):
        fld = build_ring(Gf(q))
        assert fld.mul(fld.inv(q - 1), q - 1) == 1
        for bad in (-1, q):
            with pytest.raises(RingError, match="out of range"):
                fld.inv(bad)


def test_project_refuses_an_index_outside_the_parent():
    q4 = quotient_by_radical(build_ring(Zn(4)))
    assert [q4.project(x) for x in range(4)] == [0, 1, 0, 1]
    for bad in (-1, 4, 99):
        with pytest.raises(RingError, match=f"element index {bad} out of range"):
            q4.project(bad)


def test_build_ring_rejects_bad_descriptors():
    from unitgraphs.descriptors import DescriptorError, Gf, GroupAlgebra, Cn

    with pytest.raises(DescriptorError):
        build_ring(Gf(6))  # not a prime power
    with pytest.raises(DescriptorError):
        build_ring(Zn(1))
    with pytest.raises(DescriptorError):
        build_ring(Mat(0, Zn(2)))
    with pytest.raises(DescriptorError):
        build_ring(GroupAlgebra(6, Cn(2)))
    with pytest.raises(DescriptorError, match="unknown descriptor"):
        build_ring("Z4")


def test_is_unit_examples():
    z9 = build_ring(Zn(9))
    assert not z9.is_unit(3)
    m22 = build_ring(Mat(2, Gf(2)))
    assert m22.is_unit(m22.one)
    z12 = build_ring(Zn(12))
    assert z12.is_unit(5)  # 5 * 5 = 25 = 1 (mod 12)
    assert z12.mul(5, 5) == 1


def test_unit_set_fast_paths_match_generic(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 300:
            continue
        assert ring.unit_set.mask == units_generic(ring), expr


def test_matrix_unit_counts_match_formula():
    for n, q in [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8), (1, 9), (2, 2), (2, 3)]:
        ring = build_ring(Mat(n, Gf(q)))
        assert len(ring.unit_set) == matrix_unit_count(n, q), (n, q)


def test_radical_examples():
    z12 = build_ring(Zn(12))
    assert jacobson_radical(z12).indices() == [0, 6]
    assert radical_generic(z12) == 1 << 0 | 1 << 6
    assert jacobson_radical(build_ring(Gf(8))).indices() == [0]
    ga = build_ring(GroupAlgebra(2, Cn(2)))
    # augmentation ideal {0, 1+g}: coefficient vector (1, 1) has index 3
    assert jacobson_radical(ga).indices() == [0, 3]
    assert radical_generic(ga) == 1 << 0 | 1 << 3


# matrix rings over a multi-block base or over a matrix ring: the cases
# where semisimple_images places m x m block pieces into a km x km matrix
FLATTENING_EXPRS = ("M1(M2(Z4))", "M2(Z2 x Z3)", "M2(GA(GF(2), C2))", "M1(Z4 x M2(Z2))")


def test_radical_structural_equals_generic(catalog_descriptors):
    flattening = [(expr, parse_ring_expr(expr)) for expr in FLATTENING_EXPRS]
    for expr, descriptor in catalog_descriptors + flattening:
        ring = build_ring(descriptor)
        assert jacobson_radical(ring).mask == radical_generic(ring), expr


def test_both_radicals_of_semisimple_gf2_c3_are_zero():
    # |G| = 3 is prime to 2, so the algebra is semisimple (Maschke) and
    # its structural radical, the kernel of the coset map, is {0}
    ring = build_ring(GroupAlgebra(2, Cn(3)))
    assert jacobson_radical(ring).indices() == [0]
    assert radical_generic(ring) == 1


def test_odd_dihedral_and_quaternion_algebras_have_a_shape_but_no_map():
    for group in (D4(), Q8()):
        assert wedderburn_shape(GroupAlgebra(3, group)) == ((1, 3),) * 4 + ((2, 3),)
        ring = build_ring(GroupAlgebra(3, group), order_cap=HARD_ORDER_CAP)
        with pytest.raises(UnsupportedStructure):
            semisimple_images(ring, [0])
        with pytest.raises(UnsupportedStructure):
            ring.unit_set
        with pytest.raises(UnsupportedStructure):
            jacobson_radical(ring)


def test_one_plus_radical_is_unit(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        for j in jacobson_radical(ring):
            assert ring.is_unit(ring.add(ring.one, j)), expr


def test_quotient_examples():
    q4 = quotient_by_radical(build_ring(Zn(4)))
    assert q4.order == 2 and q4.characteristic == 2
    q9 = quotient_by_radical(build_ring(Zn(9)))
    assert q9.order == 3 and q9.characteristic == 3
    qm = quotient_by_radical(build_ring(Mat(2, Zn(4))))
    assert qm.order == 16 and len(qm.unit_set) == 6
    # Z6 -> GF(2) x GF(3): x is indexed by x % 2 + 2 * (x % 3)
    q6 = quotient_by_radical(build_ring(Zn(6)))
    assert q6.representatives == (0, 3, 4, 1, 2, 5)


def test_quotient_is_a_ring_homomorphic_image(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        quot = quotient_by_radical(ring)
        assert len(quot.representatives) * len(quot.radical) == ring.order, expr
        if ring.order > 300:
            continue
        keys = np.array([quot.project(x) for x in range(ring.order)])
        x, y = np.indices((ring.order, ring.order)).reshape(2, -1)
        xq, yq = keys[x], keys[y]
        assert np.array_equal(keys[ring.add_many(x, y)], quot.add_many(xq, yq)), expr
        assert np.array_equal(keys[ring.mul_many(x, y)], quot.mul_many(xq, yq)), expr


def test_unit_iff_unit_in_quotient(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        quot = quotient_by_radical(ring)
        for x in range(ring.order):
            assert ring.is_unit(x) == quot.is_unit(quot.project(x)), expr


def test_characteristic_divides_order_and_quotient_char(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        assert ring.order % ring.characteristic == 0, expr
        quot = quotient_by_radical(ring)
        assert ring.characteristic % quot.characteristic == 0, expr


def test_boolean_and_field_predicates():
    assert is_boolean_ring(build_ring(Product((Zn(2), Zn(2), Zn(2)))))
    assert not is_boolean_ring(build_ring(Zn(4)))
    assert not is_boolean_ring(build_ring(Gf(4)))
    assert is_field(build_ring(Gf(9)))
    assert not is_field(build_ring(Zn(6)))
    assert not is_field(build_ring(Mat(2, Gf(2))))


def test_wedderburn_shape_examples():
    assert wedderburn_shape(Zn(12)) == ((1, 2), (1, 3))
    assert wedderburn_shape(Mat(2, Zn(4))) == ((2, 2),)
    assert wedderburn_shape(GroupAlgebra(2, Q8())) == ((1, 2),)
    # x^3 - 1 = (x - 1)(x^2 + x + 1) over GF(2)
    assert wedderburn_shape(GroupAlgebra(2, Cn(3))) == ((1, 2), (1, 4))
    # canonical order: ascending field order, then block size
    assert wedderburn_shape(Product((Gf(4), Mat(2, Zn(6))))) == (
        (2, 2),
        (2, 3),
        (1, 4),
    )


def test_shape_orders_multiply_to_quotient_order(catalog_descriptors):
    # |R/J(R)| is the product over blocks of q^(n^2)
    for expr, descriptor in catalog_descriptors:
        shape = wedderburn_shape(descriptor)
        assert shape is not None, expr
        ring = build_ring(descriptor)
        quot = quotient_by_radical(ring)
        total = 1
        for n, q in shape:
            total *= q ** (n * n)
        assert total == quot.order, expr


def _check_semisimple_form(ring, samples=2000):
    """Sampled: R -> R/J(R) through block images is a ring homomorphism,
    and the quotient index of x is the canonical index of x's images.
    The form is the interned quotient, block by block."""
    quot = semisimple_form(ring)
    cring, expr = quot.canonical_ring, ring.expr
    assert quot is quotient_by_radical(ring), expr
    assert quot.blocks == semisimple_blocks(ring.descriptor), expr
    assert quot.factors == tuple(map(rings.block_ring, quot.blocks)), expr
    assert cring.order == quot.order, expr
    assert quot.one == cring.one == quot.project(ring.one), expr
    keys = np.array([quot.project(x) for x in range(ring.order)])
    x, y = np.random.default_rng(20240917).integers(0, ring.order, (2, samples))
    xq, yq = keys[x], keys[y]
    assert np.array_equal(keys[ring.add_many(x, y)], quot.add_many(xq, yq)), expr
    assert np.array_equal(quot.add_many(xq, yq), cring.add_many(xq, yq)), expr
    assert np.array_equal(keys[ring.mul_many(x, y)], quot.mul_many(xq, yq)), expr
    assert np.array_equal(quot.mul_many(xq, yq), cring.mul_many(xq, yq)), expr
    assert np.array_equal(quot.from_parts(semisimple_images(ring, x)), xq), expr


def test_semisimple_form_is_an_isomorphism(catalog_descriptors):
    for _, descriptor in catalog_descriptors:
        _check_semisimple_form(build_ring(descriptor))


# cyclic group algebras outside the p-group case: one field block per
# q-cyclotomic coset; the last two embed GF(8) into GF(64) and GF(4)
# into GF(16), which no algebra of at most 256 elements needs
COSET_EXPRS = (
    "GA(GF(2), C12)", "GA(GF(3), C7)", "GA(GF(4), C6)", "GA(GF(3), C4)", "GA(GF(2), C6)",
    "GA(GF(8), C3)", "GA(GF(4), C5)",
)


@pytest.mark.parametrize(
    "expr", [*FLATTENING_EXPRS, "M2(GF(8))", "Z9 x M2(Z4)", *COSET_EXPRS]
)
def test_semisimple_form_is_an_isomorphism_sampled(expr):
    _check_semisimple_form(build_ring(parse_ring_expr(expr)))


def test_vertex_set_behaviour():
    s = VertexSet.from_indices([3, 1, 5], 8)
    assert len(s) == 3 and list(s) == [1, 3, 5]
    assert 3 in s and 0 not in s
    with pytest.raises(ValueError):
        VertexSet.from_indices([9], 8)
    assert VertexSet(0b101, 3) == VertexSet.from_indices([0, 2], 3)


def test_inconsistent_arithmetic_is_detected():
    ring = build_ring(Zn(10))
    with pytest.raises(RingError):
        ring.is_unit(11)


def _cyclic_group_algebras(bound):
    for q in range(2, bound + 1):
        n = 1
        while prime_power(q) is not None and q**n <= bound:
            yield f"GA(GF({q}), C{n})"
            n += 1


def test_cyclic_group_algebras_agree_with_the_definitions():
    from unitgraphs.classify import classify_well_covered
    from unitgraphs.graphs import build_graph
    from unitgraphs.indsets import well_covered_bruteforce

    decided = 0
    for expr in [*_cyclic_group_algebras(256), *COSET_EXPRS[-2:]]:
        descriptor = parse_ring_expr(expr)
        ring = build_ring(descriptor)
        assert ring.unit_set.mask == units_generic(ring), expr
        structural = jacobson_radical(ring)
        assert structural.mask == radical_generic(ring), expr
        blocks = wedderburn_shape(descriptor)
        assert np.prod([q ** (n * n) for n, q in blocks]) * len(structural) == ring.order
        observed = well_covered_bruteforce(
            build_graph(ring, "unit"), max_sets=20_000, time_budget=1.0
        )
        if observed is not None:
            assert classify_well_covered(descriptor) == observed, expr
            decided += 1
    assert decided >= 80


def test_quotient_units_match_the_definition(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        quot = quotient_by_radical(build_ring(descriptor))
        if quot.parent.order <= 300:
            assert quot.unit_set.mask == units_generic(quot), expr


def test_quotient_representatives_are_least_coset_elements(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        quot = quotient_by_radical(ring)
        radical = np.array(quot.radical.indices())
        for i, rep in enumerate(quot.representatives):
            coset = ring.add_many(rep, radical)
            assert coset.min() == rep, expr
            assert all(quot.project(y) == i for y in coset.tolist()), expr


# the rings of the benchmark's cap ladder, at the default cap
LADDER_EXPRS = (
    "GF(4096)", "Z4096", " x ".join(["Z2"] * 12), "M2(GF(8))", "M2(GF(7))",
    "Z9 x M2(Z4)", "GA(GF(2), C11)", "M2(Z8)", "GA(GF(2), C12)", "GA(GF(3), C7)",
)


def _check_parts(ring, x):
    """x, an element or an index array, is the mixed radix of its parts,
    and part j's own digits are the ring's digits over part j's span."""
    parts = ring.parts(x)
    assert np.array_equal(ring.from_parts(parts), x)
    digit, place = 0, 1
    for part, radix in zip(parts, ring._radices, strict=True):
        assert np.all((0 <= part) & (part < radix))
        span = 1
        while span < radix:
            m = ring._moduli[digit]
            assert ring._places[digit] == place * span
            assert np.array_equal(part // span % m, x // ring._places[digit] % m)
            span, digit = span * m, digit + 1
        assert span == radix
        place *= radix
    assert digit == len(ring._moduli)
    return parts


def test_parts_are_the_mixed_radix_of_the_digits(catalog_descriptors):
    exprs = [expr for expr, _ in catalog_descriptors] + list(LADDER_EXPRS)
    rng = random.Random(20240917)
    kinds = set()
    for expr in exprs:
        ring = build_ring(parse_ring_expr(expr))
        quot = quotient_by_radical(ring)
        for r in (ring, quot):
            if isinstance(r, (rings.ZnRing, rings.GfRing)):
                with pytest.raises(RingError, match="no parts"):
                    r.parts(0)
                continue
            kinds.add(type(r))
            _check_parts(r, np.arange(r.order))
            for x in [0, r.order - 1] + [rng.randrange(r.order) for _ in range(20)]:
                assert all(type(p) is int for p in _check_parts(r, x)), expr
        if isinstance(ring, rings.ProductRing):
            assert ring.from_parts([f.one for f in ring.factors]) == ring.one, expr
        assert quot.from_parts([b.one for b in quot.factors]) == quot.one, expr
    assert kinds == {
        rings.MatRing, rings.ProductRing, rings.GroupAlgebraRing, rings.QuotientRing
    }


def _realize(ring):
    units = ring.unit_set
    radical = jacobson_radical(ring)
    form = semisimple_form(ring)
    return units, radical, form.unit_set, form


@pytest.mark.parametrize("expr", ["GA(GF(3), C7)", "M2(GF(7))", " x ".join(["Z2"] * 12)])
def test_the_chain_maps_the_whole_ring_once(expr, monkeypatch):
    # units, radical, quotient, semisimple form and the two-size witnesses
    # all read the ring's one table of block images
    for cached in (rings._build_ring_cached, quotient_by_radical):
        cached.cache_clear()
    ring = build_ring(parse_ring_expr(expr))
    whole = []

    def counting(r, xs):
        if r is ring and len(xs) == ring.order:
            whole.append(expr)
        return semisimple_images(r, xs)

    monkeypatch.setattr(rings, "semisimple_images", counting)
    _realize(ring)
    quotient_by_radical(ring)
    if ring.is_unit(ring.add(ring.one, ring.one)):
        two_size_witnesses(ring)
    assert whole == [expr]


def test_units_and_radical_read_one_table_in_either_order(catalog_descriptors):
    generic = {
        expr: (units_generic(r), radical_generic(r))
        for expr, r in ((expr, build_ring(d)) for expr, d in catalog_descriptors)
    }
    for first in ("units", "radical"):
        for cached in (rings._build_ring_cached, quotient_by_radical):
            cached.cache_clear()
        for expr, descriptor in catalog_descriptors:
            ring = build_ring(descriptor)
            if first == "radical":
                radical = jacobson_radical(ring)
            units = ring.unit_set
            if first == "units":
                radical = jacobson_radical(ring)
            assert (units.mask, radical.mask) == generic[expr], (expr, first)


def test_ladder_units_and_radical_match_the_definitions():
    # full tables of the cap rings take half a minute to build, so the
    # scans read sampled rows: 48 elements and up to 16 of the radical
    rng = random.Random(20240917)
    for expr in LADDER_EXPRS:
        ring = build_ring(parse_ring_expr(expr))
        radical = jacobson_radical(ring)
        inside = radical.indices()
        xs = {*rng.sample(range(ring.order), 48), *rng.sample(inside, min(16, len(inside)))}
        within = indices_mask(xs)
        assert units_generic(ring, sorted(xs)) == ring.unit_set.mask & within, expr
        assert radical_generic(ring, sorted(xs)) == radical.mask & within, expr


LEAF_RINGS = st.one_of(
    st.builds(Zn, st.integers(2, 27)), st.builds(Gf, st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
)
GROUPS = st.one_of(st.builds(Cn, st.integers(1, 6)), st.sampled_from([D4(), Q8()]))
SMALL_RINGS = st.deferred(
    lambda: st.one_of(
        LEAF_RINGS,
        st.builds(GroupAlgebra, st.sampled_from([2, 3, 4, 5]), GROUPS),
        st.builds(Mat, st.integers(1, 2), SMALL_RINGS),
        st.lists(SMALL_RINGS, min_size=2, max_size=3).map(lambda fs: Product(tuple(fs))),
    )
)


@settings(max_examples=80, deadline=None)
@given(SMALL_RINGS)
def test_units_and_radical_match_the_definitions_on_sampled_rings(descriptor):
    assume(descriptor_order(descriptor, 512) <= 512)
    ring = build_ring(descriptor)
    assert ring.unit_set.mask == units_generic(ring), descriptor
    assert jacobson_radical(ring).mask == radical_generic(ring), descriptor


def test_cyclic_group_algebras_at_the_cap_realize_quickly():
    for expr in ("GA(GF(2), C11)", "GA(GF(2), C12)", "GA(GF(3), C7)"):
        for cached in (rings._build_ring_cached, quotient_by_radical):
            cached.cache_clear()
        start = time.monotonic()
        units, radical, quotient_units, form = _realize(build_ring(parse_ring_expr(expr)))
        assert time.monotonic() - start < 1.0, expr
        assert len(units) == len(quotient_units) * len(radical), expr


def test_classify_cm_rule_matches_the_ring_predicates(catalog_descriptors):
    def want(ring):
        boolean = is_boolean_ring(ring)
        cm = boolean or (ring.characteristic == 2 and is_field(ring))
        return {"cm": cm, "shellable": cm, "gorenstein": boolean}

    exprs = [expr for expr, _ in catalog_descriptors] + list(LADDER_EXPRS)
    for expr in exprs:
        ring = build_ring(parse_ring_expr(expr))
        assert classify_cm(ring.descriptor) == want(ring), expr
        # R/J(R) is classified through its canonical block product
        quotient = quotient_by_radical(ring)
        assert classify_cm(quotient.canonical_ring.descriptor) == want(quotient), f"{expr} / J"


def test_quotient_characteristic_is_read_off_the_shape(catalog_descriptors):
    # the realized quotient is the reference
    exprs = [expr for expr, _ in catalog_descriptors] + list(LADDER_EXPRS)
    for expr in exprs:
        descriptor = parse_ring_expr(expr)
        realized = quotient_by_radical(build_ring(descriptor)).characteristic
        assert cross_validate(descriptor, ()).quotient_char == realized, expr


def test_info_reads_the_radical_and_quotient_off_the_shape(catalog_descriptors, capsys):
    # the realized radical and quotient are the reference
    exprs = [expr for expr, _ in catalog_descriptors] + list(LADDER_EXPRS)
    for expr in exprs:
        ring = build_ring(parse_ring_expr(expr))
        assert cli.main(["info", expr]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["radical_size"] == len(jacobson_radical(ring)), expr
        assert result["quotient_char"] == quotient_by_radical(ring).characteristic, expr


def test_classify_cm_needs_no_realization():
    # 2^83 elements, far above every cap: the shape and the order decide
    assert classify_cm(parse_ring_expr("GA(GF(2), C83)")) == {
        "cm": False, "shellable": False, "gorenstein": False,
    }
    assert classify_cm(parse_ring_expr(f"GF({2**40})")) == {
        "cm": True, "shellable": True, "gorenstein": False,
    }

import json
import random
import time

import numpy as np
import pytest

from oracles import matrix_unit_count
from unitgraphs import cli, rings
from unitgraphs.classify import classify_cm, cross_validate
from unitgraphs.descriptors import (
    D4, Cn, Gf, GroupAlgebra, Mat, Product, Q8, Zn, prime_power, semisimple_blocks,
)
from unitgraphs.dsl import parse_ring_expr
from unitgraphs.rings import (
    HARD_ORDER_CAP,
    CapExceeded,
    RingError,
    UnsupportedStructure,
    VertexSet,
    build_ring,
    is_boolean_ring,
    is_field,
    jacobson_radical,
    quotient_by_radical,
    semisimple_images,
)
from unitgraphs.wedderburn import semisimple_form, wedderburn_shape

EXHAUSTIVE_ORDER = 64
SAMPLED_TRIPLES = 10_000


def _axiom_triples(ring):
    n = ring.order
    if n <= EXHAUSTIVE_ORDER:
        return ((x, y, z) for x in range(n) for y in range(n) for z in range(n))
    rng = random.Random(20240917)
    return (
        (rng.randrange(n), rng.randrange(n), rng.randrange(n))
        for _ in range(SAMPLED_TRIPLES)
    )


def test_ring_axioms_hold_across_catalog(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        add, mul, neg = ring.add, ring.mul, ring.neg
        zero, one = ring.zero, ring.one
        for x, y, z in _axiom_triples(ring):
            assert add(add(x, y), z) == add(x, add(y, z)), expr
            assert add(x, y) == add(y, x), expr
            assert mul(mul(x, y), z) == mul(x, mul(y, z)), expr
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z)), expr
            assert mul(add(x, y), z) == add(mul(x, z), mul(y, z)), expr
        n = ring.order
        for x in range(n):
            assert add(x, zero) == x
            assert add(x, neg(x)) == zero
            assert mul(x, one) == x == mul(one, x)


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


def test_mul_table_matches_scalar_mul(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 100:
            continue
        table = ring.mul_table
        for x in range(ring.order):
            for y in range(ring.order):
                assert table[x, y] == ring.mul(x, y), expr


def test_mul_table_matches_scalar_sampled_large(catalog_descriptors):
    rng = random.Random(7)
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order <= 100:
            continue
        for _ in range(2000):
            x, y = rng.randrange(ring.order), rng.randrange(ring.order)
            assert ring.mul_table[x, y] == ring.mul(x, y), expr


KERNEL_RINGS = ("GF(4096)", "M2(Z8)", "Z9 x M2(Z4)", "GA(GF(2), C12)")


def test_mul_many_matches_scalar_without_tables():
    rng = np.random.default_rng(11)
    for expr in KERNEL_RINGS:
        ring = build_ring(parse_ring_expr(expr))
        xs = rng.integers(0, ring.order, 2000)
        ys = rng.integers(0, ring.order, 2000)
        got = ring.mul_many(xs, ys)
        for x, y, z in zip(xs, ys, got):
            assert z == ring.mul(int(x), int(y)), (expr, x, y)
        assert "mul_table" not in vars(ring), expr


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
        zn._units_generic()
    with pytest.raises(CapExceeded):
        jacobson_radical(zn, "generic")
    ga = build_ring(GroupAlgebra(2, Cn(13)), order_cap=HARD_ORDER_CAP)
    # units from the blocks GF(2) x GF(2^12): nonzero augmentation and
    # nonzero image in the big field
    assert len(ga.unit_set) == 4095
    with pytest.raises(CapExceeded):
        ga._units_generic()
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


def test_zn2_and_gf2_realize_identical_arithmetic():
    a, b = build_ring(Zn(2)), build_ring(Gf(2))
    assert a.order == b.order == 2
    assert np.array_equal(a.mul_table, b.mul_table)
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
        assert ring.unit_set.mask == ring._units_generic(), expr


def test_matrix_unit_counts_match_formula():
    for n, q in [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8), (1, 9), (2, 2), (2, 3)]:
        ring = build_ring(Mat(n, Gf(q)))
        assert len(ring.unit_set) == matrix_unit_count(n, q), (n, q)


def test_radical_examples():
    assert jacobson_radical(build_ring(Zn(12)), "generic").indices() == [0, 6]
    assert jacobson_radical(build_ring(Gf(8))).indices() == [0]
    ga = build_ring(GroupAlgebra(2, Cn(2)))
    # augmentation ideal {0, 1+g}: coefficient vector (1, 1) has index 3
    assert jacobson_radical(ga, "generic").indices() == [0, 3]


# matrix rings over a multi-block base or over a matrix ring: the cases
# where semisimple_images places m x m block pieces into a km x km matrix
FLATTENING_EXPRS = ("M1(M2(Z4))", "M2(Z2 x Z3)", "M2(GA(GF(2), C2))", "M1(Z4 x M2(Z2))")


def test_radical_structural_equals_generic(catalog_descriptors):
    flattening = [(expr, parse_ring_expr(expr)) for expr in FLATTENING_EXPRS]
    for expr, descriptor in catalog_descriptors + flattening:
        ring = build_ring(descriptor)
        structural = jacobson_radical(ring, "structural")
        generic = jacobson_radical(ring, "generic")
        assert structural == generic, expr


def test_radical_structural_unsupported_falls_back():
    # |G| = 3 is prime to 2, so the algebra is semisimple (Maschke) and
    # its structural radical, the kernel of the coset map, is {0}
    ring = build_ring(GroupAlgebra(2, Cn(3)))
    assert jacobson_radical(ring, "structural").indices() == [0]
    assert jacobson_radical(ring, "auto").indices() == [0]
    assert jacobson_radical(ring, "generic").indices() == [0]


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
        for x in range(ring.order):
            for y in range(0, ring.order, 3):
                assert quot.project(ring.add(x, y)) == quot.add(
                    quot.project(x), quot.project(y)
                ), expr
                assert quot.project(ring.mul(x, y)) == quot.mul(
                    quot.project(x), quot.project(y)
                ), expr


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


def test_is_field_builds_no_table():
    ring = rings.GfRing(Gf(4096))  # a fresh ring, not the interned one
    assert is_field(ring)
    assert "mul_table" not in vars(ring)


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
    assert quot.block_rings == tuple(map(rings.block_ring, quot.blocks)), expr
    assert cring.order == quot.order, expr
    assert quot.one == cring.one == quot.project(ring.one), expr
    rng = random.Random(20240917)
    for _ in range(samples):
        x, y = rng.randrange(ring.order), rng.randrange(ring.order)
        xq, yq = quot.project(x), quot.project(y)
        assert quot.project(ring.add(x, y)) == quot.add(xq, yq) == cring.add(xq, yq), expr
        assert quot.project(ring.mul(x, y)) == quot.mul(xq, yq), expr
        images = [int(i) for i in semisimple_images(ring, x)]
        assert quot.encode_blocks(images) == xq, expr


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
        assert ring.unit_set.mask == ring._units_generic(), expr
        structural = jacobson_radical(ring, "structural")
        assert structural == jacobson_radical(ring, "generic"), expr
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
            assert quot.unit_set.mask == quot._units_generic(), expr


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


def _realize(ring):
    units = ring.unit_set
    radical = jacobson_radical(ring)
    form = semisimple_form(ring)
    return units, radical, form.unit_set, form


def test_production_never_reaches_the_definitional_scans(catalog_descriptors, monkeypatch):
    def refuse(*args):
        raise AssertionError("definitional scan reached")

    monkeypatch.setattr(rings.Ring, "_units_generic", refuse)
    monkeypatch.setattr(rings, "_radical_generic", refuse)
    for cached in (rings._build_ring_cached, quotient_by_radical):
        cached.cache_clear()
    exprs = [expr for expr, _ in catalog_descriptors] + list(LADDER_EXPRS)
    for expr in exprs:
        _realize(build_ring(parse_ring_expr(expr)))
    for expr in ("M2(GA(GF(3), C2))", "M2(M2(Z2))"):
        _realize(build_ring(parse_ring_expr(expr), order_cap=HARD_ORDER_CAP))


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

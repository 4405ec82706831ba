from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitgraphs.classify import classify_cm, classify_well_covered
from unitgraphs.descriptors import (
    MAX_DEPTH,
    CapExceeded,
    Cn,
    D4,
    DescriptorError,
    Gf,
    GroupAlgebra,
    Mat,
    Product,
    Q8,
    Zn,
    descriptor_expr,
    descriptor_order,
    group_mul_table,
    group_order,
    is_prime,
    prime_power,
    semisimple_blocks,
)
from unitgraphs.dsl import RingExprError, parse_ring_expr
from unitgraphs.wedderburn import wedderburn_shape


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(1) is None


def test_group_tables_are_groups():
    for gid in (Cn(1), Cn(4), Cn(6), D4(), Q8()):
        n = group_order(gid)
        t = group_mul_table(gid)
        # identity first
        assert all(t[0][x] == x and t[x][0] == x for x in range(n))
        # associativity
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert t[t[a][b]][c] == t[a][t[b][c]]
        # every element invertible
        for a in range(n):
            assert any(t[a][b] == 0 for b in range(n))


def test_q8_is_not_d4():
    d4, q8 = group_mul_table(D4()), group_mul_table(Q8())
    # b^2 differs: index 4 is b
    assert d4[4][4] == 0 and q8[4][4] == 2
    # both non-abelian
    assert any(d4[a][b] != d4[b][a] for a in range(8) for b in range(8))
    assert any(q8[a][b] != q8[b][a] for a in range(8) for b in range(8))
    # Q8 has a unique element of order 2 (a^2); D4 has several
    def order2(t):
        return [x for x in range(1, 8) if t[x][x] == 0]

    assert len(order2(q8)) == 1
    assert len(order2(d4)) > 1


def test_descriptor_order():
    assert descriptor_order(Mat(2, Gf(2))) == 16
    assert descriptor_order(Product((Zn(4), Gf(4)))) == 16
    assert descriptor_order(GroupAlgebra(2, Q8())) == 256


# descriptors that name no ring: each is refused by its constructor
NO_RING = {
    "Cn(0)": lambda: Cn(0),
    "Cn(-2)": lambda: Cn(-2),
    "Zn(1)": lambda: Zn(1),
    "Zn(True)": lambda: Zn(True),
    "Zn(4.0)": lambda: Zn(4.0),
    "Zn(int64(4))": lambda: Zn(np.int64(4)),
    "Gf(6)": lambda: Gf(6),
    "Gf(4.0)": lambda: Gf(4.0),
    "Mat(0, Gf(2))": lambda: Mat(0, Gf(2)),
    "Mat(2, 'Z4')": lambda: Mat(2, "Z4"),
    "Product(())": lambda: Product(()),
    "Product([Zn(2)])": lambda: Product([Zn(2)]),
    "Product((Zn(2), 3))": lambda: Product((Zn(2), 3)),
    "GroupAlgebra(6, Cn(2))": lambda: GroupAlgebra(6, Cn(2)),
    "GroupAlgebra(2, 'C3')": lambda: GroupAlgebra(2, "C3"),
}


@pytest.mark.parametrize("build", NO_RING.values(), ids=NO_RING.keys())
def test_a_descriptor_that_names_no_ring_cannot_be_built(build):
    with pytest.raises(DescriptorError):
        build()


class Node(NamedTuple):
    """A drawn constructor call; its arguments may be nodes themselves."""

    cls: type
    args: tuple


def realize(tree):
    """The value a drawn tree names, its innermost nodes built first."""
    if isinstance(tree, Node):
        return tree.cls(*map(realize, tree.args))
    if isinstance(tree, (list, tuple)):
        return type(tree)(map(realize, tree))
    return tree


# field values: small and negative ints (leaning to valid ones, so that
# many draws build), raw values of other types (bools, floats, strings),
# and nested descriptors and groups
RAW = st.sampled_from([True, False, 0.0, 4.0, -1.5, "", "2", "Z4", "C3"])
NUMBERS = st.one_of(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.integers(-3, 12), RAW)
GROUPS = st.one_of(
    st.builds(Node, st.just(Cn), st.tuples(NUMBERS)),
    st.sampled_from([Node(D4, ()), Node(Q8, ())]),
)
LEAVES = st.builds(Node, st.sampled_from([Zn, Gf]), st.tuples(NUMBERS))
RINGS = st.deferred(
    lambda: st.one_of(
        LEAVES,
        LEAVES,
        st.builds(Node, st.just(Mat), st.tuples(NUMBERS, st.one_of(RINGS, RAW, GROUPS))),
        st.builds(Node, st.just(GroupAlgebra), st.tuples(NUMBERS, st.one_of(GROUPS, RAW, RINGS))),
        st.builds(Node, st.just(Product), st.tuples(FACTORS)),
    )
)
FACTORS = st.one_of(
    st.lists(st.one_of(RINGS, RAW), max_size=3).map(tuple), st.lists(RINGS, max_size=2), RAW
)


@settings(max_examples=400, deadline=None)
@given(RINGS)
def test_a_descriptor_that_builds_is_read_to_the_end(tree):
    try:
        d = realize(tree)
    except DescriptorError:
        return
    assert 2 <= descriptor_order(d, 4096) <= 4097
    assert isinstance(descriptor_expr(d), str)
    try:
        blocks = semisimple_blocks(d)
        assert sorted(blocks, key=lambda b: (b[1], b[0])) == list(wedderburn_shape(d))
        assert isinstance(classify_well_covered(d), bool)
        assert set(classify_cm(d)) == {"cm", "shellable", "gorenstein"}
    except CapExceeded:  # cyclotomic cosets past MAX_COSET_MODULUS
        pass


def test_parse_examples():
    assert parse_ring_expr("Z4 x M2(GF(2))") == Product((Zn(4), Mat(2, Gf(2))))
    assert parse_ring_expr("GA(GF(2), Q8)") == GroupAlgebra(2, Q8())
    assert parse_ring_expr("GA(Z2, C2)") == GroupAlgebra(2, Cn(2))
    assert parse_ring_expr("  M2( Z2 x Z3 )") == Mat(2, Product((Zn(2), Zn(3))))


def test_parse_flattens_products():
    nested = parse_ring_expr("(Z2 x Z3) x Z5")
    assert nested == Product((Zn(2), Zn(3), Zn(5)))
    assert parse_ring_expr("Z2 x Z3 x Z5") == nested


def test_parse_errors_carry_positions():
    with pytest.raises(RingExprError) as err:
        parse_ring_expr("GF(6)")
    assert "6 is not a prime power" in str(err.value)
    assert err.value.position == 3

    with pytest.raises(RingExprError):
        parse_ring_expr("Z1")
    with pytest.raises(RingExprError):
        parse_ring_expr("M0(Z2)")
    with pytest.raises(RingExprError):
        parse_ring_expr("GA(Z4, C2)")  # coefficient field must be prime for Z form
    with pytest.raises(RingExprError):
        parse_ring_expr("Z4 x")
    with pytest.raises(RingExprError):
        parse_ring_expr("Z4 junk")

    # numbers are runs of at most 40 ASCII digits
    with pytest.raises(RingExprError) as err:
        parse_ring_expr("Z\u00b2")  # str.isdigit accepts the superscript two
    assert err.value.position == 1
    with pytest.raises(RingExprError) as err:
        parse_ring_expr("Z" + "9" * 41)
    assert err.value.position == 1
    assert parse_ring_expr("Z" + "0" * 38 + "12") == Zn(12)

    # brackets nest at most 100 deep
    deep = parse_ring_expr("M1(" * 100 + "Z2" + ")" * 100)
    for _ in range(100):
        deep = deep.base
    assert deep == Zn(2)
    assert parse_ring_expr("(" * 100 + "Z2" + ")" * 100) == Zn(2)
    for text in ("M1(" * 101 + "Z2" + ")" * 101, "(" * 800 + "Z2" + ")" * 800):
        with pytest.raises(RingExprError) as err:
            parse_ring_expr(text)
        assert "nest" in err.value.message


def test_descriptors_nest_no_deeper_than_the_parser_reads():
    # a chain of 1200 wraps once made descriptor_expr, semisimple_blocks,
    # both classifiers and hash raise RecursionError
    deepest = parse_ring_expr("M1(" * MAX_DEPTH + "Z2" + ")" * MAX_DEPTH)
    products = Product((Zn(2),))
    for _ in range(MAX_DEPTH):
        products = Product((products,))
    for d in (deepest, products):
        assert descriptor_expr(d).count("(") == MAX_DEPTH
        assert isinstance(hash(d), int)
        assert semisimple_blocks(d) == ((1, 2),)
        assert classify_well_covered(d) == classify_well_covered(Zn(2))
        assert classify_cm(d) == classify_cm(Zn(2))
    with pytest.raises(DescriptorError, match=f"nest at most {MAX_DEPTH}"):
        Mat(1, deepest)
    with pytest.raises(DescriptorError, match=f"nest at most {MAX_DEPTH}"):
        Product((products,))


def test_print_parse_round_trip(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        assert parse_ring_expr(descriptor_expr(descriptor)) == descriptor
    extra = [
        Mat(2, Product((Zn(2), Zn(3)))),
        GroupAlgebra(4, D4()),
        Product((Mat(2, Gf(2)), GroupAlgebra(2, Cn(4)))),
    ]
    for descriptor in extra:
        assert parse_ring_expr(descriptor_expr(descriptor)) == descriptor


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

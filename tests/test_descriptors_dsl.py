import pytest

from unitgraphs.descriptors import (
    Cn,
    D4,
    Gf,
    GroupAlgebra,
    Mat,
    Product,
    Q8,
    Zn,
    descriptor_order,
    flatten_factors,
    group_mul_table,
    group_order,
    is_prime,
    prime_power,
)
from unitgraphs.dsl import RingExprError, parse_ring_expr, print_ring_expr


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


def test_print_parse_round_trip(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        assert parse_ring_expr(print_ring_expr(descriptor)) == descriptor
    extra = [
        Mat(2, Product((Zn(2), Zn(3)))),
        GroupAlgebra(4, D4()),
        Product((Mat(2, Gf(2)), GroupAlgebra(2, Cn(4)))),
    ]
    for descriptor in extra:
        assert parse_ring_expr(print_ring_expr(descriptor)) == descriptor


def test_flatten_factors():
    d = Product((Product((Zn(2), Zn(3))), Gf(4)))
    assert flatten_factors(d) == (Zn(2), Zn(3), Gf(4))
    assert flatten_factors(Zn(6)) == (Zn(6),)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

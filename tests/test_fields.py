import itertools

import pytest

from oracles import poly_is_irreducible_bruteforce
from unitgraphs.descriptors import prime_power
from unitgraphs.fields import (
    GfField,
    mat_det,
    mat_identity,
    mat_inv,
    mat_mul,
    smallest_irreducible,
)


def _lex_smallest_by_oracle(p, k):
    for tail in itertools.product(range(p), repeat=k):
        f = tuple(tail) + (1,)
        if poly_is_irreducible_bruteforce(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (2, 8)])
def test_modulus_is_lex_smallest_irreducible(p, k):
    assert smallest_irreducible(p, k) == _lex_smallest_by_oracle(p, k)


def test_modulus_frozen_values():
    # computed once with the factor-pair oracle above and pinned
    assert smallest_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert smallest_irreducible(2, 3) == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert smallest_irreducible(2, 4) == (1, 0, 0, 1, 1)  # x^4 + x^3 + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustive(q):
    fld = GfField(q)
    elems = range(q)
    for x in elems:
        assert fld.add(x, 0) == x
        assert fld.mul(x, 1) == x
        assert fld.add(x, fld.neg(x)) == 0
        if x:
            assert fld.mul(x, fld.inv(x)) == 1
    for x in elems:
        for y in elems:
            assert fld.add(x, y) == fld.add(y, x)
            assert fld.mul(x, y) == fld.mul(y, x)
            for z in elems:
                assert fld.add(fld.add(x, y), z) == fld.add(x, fld.add(y, z))
                assert fld.mul(fld.mul(x, y), z) == fld.mul(x, fld.mul(y, z))
                assert fld.mul(x, fld.add(y, z)) == fld.add(
                    fld.mul(x, y), fld.mul(x, z)
                )


def test_field_multiplicative_group_order():
    for q in (4, 8, 9, 16):
        fld = GfField(q)
        for x in range(1, q):
            # x^(q-1) = 1 in the multiplicative group
            acc, e = 1, q - 1
            base = x
            while e:
                if e & 1:
                    acc = fld.mul(acc, base)
                base = fld.mul(base, base)
                e >>= 1
            assert acc == 1


def test_encode_decode_round_trip():
    fld = GfField(27)
    for x in range(27):
        assert fld.encode(fld.decode(x)) == x


def test_mul_matches_naive_polynomial_reduction():
    # pins the encoding, not just the isomorphism class: multiply the
    # coefficient polynomials directly and long-divide by the modulus
    for q in (4, 8, 9, 16, 27):
        fld = GfField(q)
        p, k, modulus = fld.p, fld.k, list(fld.modulus)
        for x in range(q):
            for y in range(q):
                a, b = fld.decode(x), fld.decode(y)
                prod = [0] * (2 * k - 1)
                for i, ai in enumerate(a):
                    for j, bj in enumerate(b):
                        prod[i + j] = (prod[i + j] + ai * bj) % p
                # naive long division by the monic modulus
                for top in range(len(prod) - 1, k - 1, -1):
                    c = prod[top]
                    if c:
                        for i, m in enumerate(modulus):
                            prod[top - k + i] = (prod[top - k + i] - c * m) % p
                assert fld.mul(x, y) == fld.encode(prod[:k]), (q, x, y)


PRIME_POWERS_TO_64 = [q for q in range(2, 65) if prime_power(q)]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_table_arithmetic_matches_the_polynomial_product(q):
    # the scalar mul and inv read the log/antilog tables; the polynomial
    # product they are built from is the reference, over every pair
    fld = GfField(q)
    for x in range(q):
        for y in range(q):
            assert fld.mul(x, y) == fld._poly_mul(x, y), (q, x, y)
        if x:
            assert fld._poly_mul(x, fld.inv(x)) == 1, (q, x)
    with pytest.raises(ZeroDivisionError):
        fld.inv(0)


def test_mat_helpers_over_gf3():
    fld = GfField(3)
    a = [[1, 2], [2, 1]]
    assert mat_det(fld, a) == 0  # 1 - 4 = -3 = 0 mod 3
    b = [[1, 1], [0, 1]]
    assert mat_det(fld, b) == 1
    binv = mat_inv(fld, b)
    assert mat_mul(fld, b, binv) == mat_identity(fld, 2)
    with pytest.raises(ZeroDivisionError):
        mat_inv(fld, a)


def test_mat_det_matches_permanent_expansion_gf2():
    # 3x3 over GF(2): compare elimination against the Leibniz expansion
    fld = GfField(2)
    import itertools as it

    def leibniz(m):
        total = 0
        for perm in it.permutations(range(3)):
            prod = 1
            for i, j in enumerate(perm):
                prod &= m[i][j]
            total ^= prod  # signs vanish mod 2
        return total

    for bits in range(512):
        m = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        assert mat_det(fld, m) == leibniz(m)

import itertools
import random

import pytest

from oracles import (
    poly_is_irreducible_bruteforce,
    poly_is_irreducible_by_trial_division,
    smallest_irreducible_by_trial_division,
)
from unitgraphs import fields
from unitgraphs.bits import HARD_ORDER_CAP
from unitgraphs.descriptors import Gf, prime_power
from unitgraphs.fields import smallest_irreducible
from unitgraphs.rings import build_ring


def _lex_smallest_by_oracle(p, k):
    for tail in itertools.product(range(p), repeat=k):
        f = tuple(tail) + (1,)
        if poly_is_irreducible_bruteforce(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (2, 8)])
def test_modulus_is_lex_smallest_irreducible(p, k):
    assert smallest_irreducible(p, k) == _lex_smallest_by_oracle(p, k)


# (p, k) of every prime power q = p^k <= 4096; k = 1 is the fixed (0, 1)
EXTENSIONS = [pk for pk in map(prime_power, range(2, 4097)) if pk and pk[1] > 1]


def test_modulus_matches_trial_division_at_every_size_to_4096():
    assert len(EXTENSIONS) == 40 and (2, 12) in EXTENSIONS and (61, 2) in EXTENSIONS
    for p, k in EXTENSIONS:
        fields.smallest_irreducible.cache_clear()
        assert smallest_irreducible(p, k) == smallest_irreducible_by_trial_division(p, k), (p, k)


def test_ben_or_matches_trial_division_on_random_polynomials():
    rng = random.Random(20261019)
    for _ in range(2000):
        p = rng.choice([2, 3, 5, 7, 11])
        k = rng.randint(1, 7)
        f = [rng.randrange(p) for _ in range(k)] + [1]
        assert fields._is_irreducible(f, p) is poly_is_irreducible_by_trial_division(f, p), (f, p)


def test_modulus_frozen_values():
    # computed once with the factor-pair oracle above and pinned
    assert smallest_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert smallest_irreducible(2, 3) == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert smallest_irreducible(2, 4) == (1, 0, 0, 1, 1)  # x^4 + x^3 + 1
    # the fields the rings at the default cap realize, and GF(2^16)
    assert smallest_irreducible(2, 10) == (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)
    assert smallest_irreducible(2, 11) == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1)
    assert smallest_irreducible(2, 12) == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)
    assert smallest_irreducible(3, 6) == (1, 0, 0, 0, 1, 1, 1)
    assert smallest_irreducible(3, 7) == (1, 0, 0, 0, 0, 1, 2, 1)
    assert smallest_irreducible(2, 16) == (
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustive(q):
    fld = build_ring(Gf(q))
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
        fld = build_ring(Gf(q))
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


def test_mul_matches_naive_polynomial_reduction():
    # pins the encoding, not just the isomorphism class: multiply the
    # coefficient polynomials directly and long-divide by the modulus
    for q in (4, 8, 9, 16, 27):
        fld = build_ring(Gf(q))
        p, k, modulus = fld.p, fld.k, list(fld.modulus)
        for x in range(q):
            for y in range(q):
                a = [x // p**i % p for i in range(k)]
                b = [y // p**i % p for i in range(k)]
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
                index = sum(c * p**i for i, c in enumerate(prod[:k]))
                assert fld.mul(x, y) == index, (q, x, y)


def test_mul_mod_matches_the_product_long_divided():
    # any trimmed nonzero modulus, monic or not; factors of any length,
    # trailing zeros included
    rng = random.Random(5)
    for _ in range(500):
        p = rng.choice((2, 3, 5, 7))
        f = [rng.randrange(p) for _ in range(rng.randint(0, 4))] + [rng.randrange(1, p)]
        a, b = ([rng.randrange(p) for _ in range(rng.randint(0, 6))] for _ in "ab")
        prod = [0] * (len(a) + len(b))
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        k, inv_lead = len(f) - 1, pow(f[-1], -1, p)
        for top in range(len(prod) - 1, k - 1, -1):
            c = prod[top] * inv_lead % p
            for i, m in enumerate(f):
                prod[top - k + i] = (prod[top - k + i] - c * m) % p
        want = prod[:k]
        while want and want[-1] == 0:
            want.pop()
        assert fields.mul_mod(a, b, f, p) == want, (a, b, f, p)


PRIME_POWERS_TO_64 = [q for q in range(2, 65) if prime_power(q)]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_table_arithmetic_matches_the_polynomial_product(q):
    # the scalar mul and inv read the log/antilog tables; the polynomial
    # product they are built from is the reference, over every pair
    fld = build_ring(Gf(q))
    for x in range(q):
        for y in range(q):
            assert fld.mul(x, y) == fld._poly_mul(x, y), (q, x, y)
        if x:
            assert fld._poly_mul(x, fld.inv(x)) == 1, (q, x)
    with pytest.raises(ZeroDivisionError):
        fld.inv(0)


LOG_EXP_ORDERS = [q for q in range(2, 257) if prime_power(q)] + [729, 1024, 2048, 2187, 4096]


@pytest.mark.parametrize("q", LOG_EXP_ORDERS)
def test_log_exp_tables_match_the_polynomial_walk(q):
    # the antilog table against the powers of the least generator, taken
    # one polynomial product at a time
    fld = build_ring(Gf(q))
    log, exp = fld._log_exp

    def powers(c):
        out, x = [], 1
        while not out or x != 1:
            out.append(x)
            x = fld._poly_mul(x, c)
        return out

    walk = next(w for w in map(powers, range(1, q)) if len(w) == q - 1)
    assert exp[: q - 1].tolist() == walk
    assert exp[q - 1 : 2 * (q - 1)].tolist() == walk
    assert not exp[2 * (q - 1) :].any()
    assert log[0] == 2 * (q - 1)
    assert [int(log[w]) for w in walk] == list(range(q - 1))


def test_log_exp_tables_at_the_hard_cap():
    q = HARD_ORDER_CAP
    fld = build_ring(Gf(q), order_cap=q)
    log, exp = fld._log_exp
    assert sorted(exp[: q - 1].tolist()) == list(range(1, q))
    rng = random.Random(20261019)
    for _ in range(2000):
        x, y = rng.randrange(q), rng.randrange(q)
        assert fld.mul(x, y) == fld._poly_mul(x, y), (x, y)

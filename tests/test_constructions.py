import pytest

from oracles import all_mis_subsets
from unitgraphs import constructions
from unitgraphs.constructions import (
    ConstructionError,
    lift_nonunit_mis,
    lift_unit_mis_reps,
    matrix_ring,
    mixed_char_product_witnesses,
    nonunit_complement_witness,
    product_nonunit_extend,
    product_unit_sets,
    signature_set,
    two_size_witnesses,
    zero_first_row_set,
)
from unitgraphs.bits import VertexSet
from unitgraphs.descriptors import Gf, Mat, Product, Zn
from unitgraphs.dsl import parse_ring_expr
from unitgraphs.graphs import GraphError, build_graph
from unitgraphs.indsets import is_maximal_independent, well_covered_bruteforce
from unitgraphs.rings import ProductRing, build_ring, jacobson_radical, quotient_by_radical


def _ring(expr):
    return build_ring(parse_ring_expr(expr))


# ---------------------------------------------------------------------------
# signature and zero-first-row sets
# ---------------------------------------------------------------------------

def test_signature_set_basics():
    s = signature_set(1, 3)
    assert s.indices() == [1, 2]  # +-1 in GF(3)
    s2 = signature_set(2, 3)
    assert len(s2) == 4
    assert is_maximal_independent(build_graph(matrix_ring(2, 3)), s2)
    with pytest.raises(GraphError, match="exceeds the graph cap"):
        signature_set(2, 9)  # M2(GF(9)) has 6561 elements, over the graph cap


def test_signature_sizes_are_powers_of_two():
    for n, q in [(1, 3), (1, 5), (2, 3), (2, 5)]:
        assert len(signature_set(n, q)) == 2**n
    # M3(GF(3)) is over the graph cap: the members are built, not certified
    assert len(constructions._signature_members(3, 3)) == 2**3
    with pytest.raises(GraphError):
        signature_set(3, 3)


def test_signature_rejects_characteristic_two():
    with pytest.raises(ConstructionError):
        signature_set(2, 2)
    with pytest.raises(ConstructionError):
        signature_set(1, 4)


def test_zero_first_row_sizes_and_maximality():
    z = zero_first_row_set(2, 3)
    assert len(z) == 9
    assert is_maximal_independent(build_graph(matrix_ring(2, 3)), z)
    z22 = zero_first_row_set(2, 2)
    assert len(z22) == 4
    assert is_maximal_independent(build_graph(matrix_ring(2, 2)), z22)
    assert zero_first_row_set(1, 2).indices() == [0]


def test_zero_first_row_members_have_zero_first_row():
    ring = matrix_ring(2, 3)
    for idx in zero_first_row_set(2, 3):
        assert ring.parts(idx)[:2] == [0, 0]


# ---------------------------------------------------------------------------
# product constructions
# ---------------------------------------------------------------------------

def test_product_nonunit_extend_examples():
    z2, z3 = _ring("Z2"), _ring("Z3")
    out = product_nonunit_extend([z2, z3], 1, VertexSet.from_indices([0], 3))
    assert out.indices() == [0, 1]  # (0,0) and (1,0)
    out2 = product_nonunit_extend([z3, z3], 0, VertexSet.from_indices([0], 3))
    assert len(out2) == 3
    single = product_nonunit_extend([z3], 0, VertexSet.from_indices([0], 3))
    assert single.indices() == [0]


def test_product_nonunit_extend_verified_against_oracle():
    z2, z3 = _ring("Z2"), _ring("Z3")
    out = product_nonunit_extend([z2, z3], 1, VertexSet.from_indices([0], 3))
    prod = _ring("Z2 x Z3")
    assert out.mask in all_mis_subsets(build_graph(prod))


def test_product_nonunit_extend_rejects_units():
    z2, z3 = _ring("Z2"), _ring("Z3")
    with pytest.raises(ConstructionError):
        product_nonunit_extend([z2, z3], 1, VertexSet.from_indices([1, 2], 3))


def test_product_unit_sets_examples():
    z3 = _ring("Z3")
    m = VertexSet.from_indices([1, 2], 3)
    out = product_unit_sets([z3, z3], [m, m])
    assert len(out) == 4
    assert out.mask in all_mis_subsets(build_graph(_ring("Z3 x Z3")))

    z5 = _ring("Z5")
    m5 = VertexSet.from_indices([1, 4], 5)
    assert is_maximal_independent(build_graph(z5), m5)
    assert product_unit_sets([z5], [m5]).indices() == [1, 4]

    out15 = product_unit_sets([z3, z5], [m, m5])
    assert len(out15) == 4
    assert out15.mask in all_mis_subsets(build_graph(_ring("Z3 x Z5")))


def test_product_unit_sets_needs_two_a_unit():
    z2, z3 = _ring("Z2"), _ring("Z3")
    with pytest.raises(ConstructionError):
        product_unit_sets(
            [z2, z3],
            [VertexSet.from_indices([1], 2), VertexSet.from_indices([1, 2], 3)],
        )


# ---------------------------------------------------------------------------
# radical lifting
# ---------------------------------------------------------------------------

def test_lift_nonunit_examples():
    z4 = _ring("Z4")
    out = lift_nonunit_mis(z4, VertexSet.from_indices([0], 2))
    assert out.indices() == [0, 2]
    z9 = _ring("Z9")
    out9 = lift_nonunit_mis(z9, VertexSet.from_indices([0], 3))
    assert out9.indices() == [0, 3, 6]


def test_lift_nonunit_size_identity_m2z4():
    ring = _ring("M2(Z4)")
    quot = quotient_by_radical(ring)
    # zero-first-row of the quotient (= M2(GF(2)) under canonical indexing)
    zq = zero_first_row_set(2, 2)
    qset = VertexSet(zq.mask, quot.order)
    out = lift_nonunit_mis(ring, qset)
    assert len(out) == len(qset) * len(quot.radical) == 4 * 16
    assert is_maximal_independent(build_graph(ring), out)


def test_lift_unit_examples():
    z9 = _ring("Z9")
    out = lift_unit_mis_reps(z9, VertexSet.from_indices([1, 2], 3))
    assert out.indices() == [1, 2]
    assert is_maximal_independent(build_graph(z9), out)

    z25 = _ring("Z25")
    quot = quotient_by_radical(z25)
    assert quot.order == 5
    unit_mis = VertexSet.from_indices([1, 4], 5)  # maximal in the Z5 graph
    out25 = lift_unit_mis_reps(z25, unit_mis)
    assert len(out25) == 2

    g9 = _ring("GF(9)")
    m = VertexSet.from_indices([1, 2], 9)  # 1 and -1; J = 0 so lift is itself
    assert lift_unit_mis_reps(g9, m).indices() == [1, 2]


def test_lift_unit_requires_two_a_unit():
    z4 = _ring("Z4")
    with pytest.raises(ConstructionError):
        lift_unit_mis_reps(z4, VertexSet.from_indices([1], 2))


def test_lift_rejects_wrong_universe():
    z4 = _ring("Z4")
    with pytest.raises(ConstructionError):
        lift_nonunit_mis(z4, VertexSet.from_indices([0], 4))


# ---------------------------------------------------------------------------
# complement witness
# ---------------------------------------------------------------------------

def test_complement_witness_block_rules():
    # one invertible component and one zero component
    s = _ring("GF(3) x M2(GF(3))")
    mring = matrix_ring(2, 3)
    y = 0 + 3 * mring.one  # (0, I)
    z = nonunit_complement_witness(s, y)
    assert z == 1 + 3 * 0  # (1, 0)

    # a matrix already in normal form: [[1,0],[0,0]] + witness = identity
    y_idx = mring.from_parts([1, 0, 0, 0])
    z_idx = nonunit_complement_witness(mring, y_idx)
    assert mring.parts(z_idx) == [0, 0, 0, 1]
    assert mring.add(y_idx, z_idx) == mring.one


@pytest.mark.parametrize(
    "expr",
    [
        "M2(GF(2))",
        "M2(GF(3))",
        "GF(3) x GF(3)",
        "GF(2) x M2(GF(3))",
        # the catalog's other semisimple products of matrix rings over fields
        "Z2 x Z3",
        "GF(4) x GF(4)",
        "GF(2) x GF(4)",
        # matrix rings over Z_p, which count as fields through GF(p)
        "M2(Z3)",
        "Z5 x M2(Z2)",
        # 3 x 3 blocks, where a block can have two dependent rows, and the
        # larger fields
        "M3(GF(2))",
        "M3(GF(2)) x GF(3)",
        "M2(GF(4))",
        "M2(GF(7))",
        "M2(GF(8))",
        # semisimple rings whose blocks R/J(R) = R shows and the expression
        # does not: Z_n squarefree, semisimple group algebras, and matrix
        # rings over products
        "Z6",
        "Z15",
        "GA(GF(2), C3)",
        "GA(GF(3), C2)",
        "M2(GF(2) x GF(2))",
    ],
)
def test_complement_witness_exhaustive(expr):
    ring = _ring(expr)
    checked = 0
    for y in range(1, ring.order):
        if ring.is_unit(y):
            continue
        z = nonunit_complement_witness(ring, y)
        assert not ring.is_unit(z)
        assert ring.is_unit(ring.add(y, z))
        checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "expr,count,total",
    [
        ("M2(Z3)", 32, 560),
        ("Z5 x M2(Z2)", 55, 1320),
        ("M2(GF(4))", 75, 3315),
        ("M2(GF(7))", 384, 103200),
        ("M2(GF(8))", 567, 233415),
        ("GF(2) x M2(GF(3))", 113, 2376),
    ],
)
def test_complement_witness_sums_are_pinned(expr, count, total):
    # sums over every nonzero non-unit, measured with the earlier
    # rank-normal-form rule, which the row pass matches on every 1 x 1 and
    # 2 x 2 block
    ring = _ring(expr)
    ys = [y for y in range(1, ring.order) if not ring.is_unit(y)]
    assert len(ys) == count
    assert sum(nonunit_complement_witness(ring, y) for y in ys) == total


def test_complement_witness_pairs_dependent_rows_with_free_columns():
    # row 0 leads at column 2; rows 1 and 2 are dependent, columns 0 and 1
    # lead nothing, so Z = E_10 + E_21
    ring = _ring("M3(GF(2))")
    y = ring.from_parts([0, 0, 1, 0, 0, 0, 0, 0, 0])
    z = nonunit_complement_witness(ring, y)
    assert ring.parts(z) == [0, 0, 0, 1, 0, 0, 0, 1, 0]


def test_complement_witness_rejects_bad_inputs():
    ring = _ring("M2(GF(3))")
    with pytest.raises(ConstructionError):
        nonunit_complement_witness(ring, 0)
    with pytest.raises(ConstructionError):
        nonunit_complement_witness(ring, ring.one)
    for expr in ("Z4", "M2(Z4)"):  # J(R) != 0
        with pytest.raises(ConstructionError, match="is not semisimple"):
            nonunit_complement_witness(_ring(expr), 2)


def test_recipes_refuse_arguments_of_the_wrong_type():
    z4, m2 = _ring("Z4"), _ring("M2(GF(3))")
    zero = VertexSet.from_indices([0], 4)
    calls = {
        "bad ring 'Z4'": lambda: two_size_witnesses("Z4"),
        "bad quotient set \\[0\\]": lambda: lift_nonunit_mis(z4, [0]),
        "bad ring None": lambda: lift_unit_mis_reps(None, zero),
        "bad factor position True": lambda: product_nonunit_extend([z4, z4], True, zero),
        "bad factor set 0": lambda: product_nonunit_extend([z4, z4], 1, 0),
        "bad factor 'Z4'": lambda: product_unit_sets(["Z4"], [zero]),
        "bad factor list <": lambda: product_unit_sets(z4, [zero]),
        "bad y '3'": lambda: nonunit_complement_witness(m2, "3"),
        "bad y 1.0": lambda: nonunit_complement_witness(m2, 1.0),
        "bad R 'Z2'": lambda: mixed_char_product_witnesses("Z2", _ring("Z3")),
        "bad S 3": lambda: mixed_char_product_witnesses(_ring("Z2"), 3),
        "bad n 2.0": lambda: signature_set(2.0, 3),
        "bad q True": lambda: zero_first_row_set(2, True),
    }
    for message, call in calls.items():
        with pytest.raises(ConstructionError, match=message):
            call()


# ---------------------------------------------------------------------------
# two different-size witnesses
# ---------------------------------------------------------------------------

def test_mixed_char_witness_examples():
    a, b = mixed_char_product_witnesses(_ring("Z2"), _ring("Z3"))
    assert len(a) == 3 and len(b) == 2
    assert sorted(b.indices()) == [0, 1]  # (0,0) and (1,0)

    a4, b4 = mixed_char_product_witnesses(_ring("GF(4)"), _ring("Z3"))
    assert (len(a4), len(b4)) == (3, 4)

    with pytest.raises(ConstructionError):
        mixed_char_product_witnesses(_ring("Z2"), _ring("Z9"))
    with pytest.raises(ConstructionError):
        mixed_char_product_witnesses(_ring("Z3"), _ring("Z5"))


def test_mixed_char_witness_size_identity():
    for r_expr, s_expr in [
        ("Z2", "Z3"),
        ("GF(4)", "Z3"),
        ("Z2", "Z5"),
        ("GF(2)", "M2(GF(3))"),
        ("GA(GF(2), C3)", "Z3"),  # R/J(R) = GF(2) x GF(4)
        ("Z2 x M2(GF(2))", "Z3"),
    ]:
        r, s = _ring(r_expr), _ring(s_expr)
        m_times_s, n_set = mixed_char_product_witnesses(r, s)
        m_size = len(m_times_s) // s.order
        x_size = s.order - len(s.unit_set)
        assert len(n_set) == r.order + m_size * x_size - m_size
        assert len(m_times_s) != len(n_set)
        assert well_covered_bruteforce(
            build_graph(build_ring(Product((r.descriptor, s.descriptor))))
        ) is False


def test_a_quotient_factor_stays_the_quotient():
    # R/J(Z4) = GF(2), so the products below are GF(2) x Z3 (6 elements),
    # not Z4 x Z3
    quot, z3 = quotient_by_radical(_ring("Z4")), _ring("Z3")
    assert quot.descriptor == Gf(2) and quot.expr == "(Z4)/J"
    target = _ring("GF(2) x Z3")
    extended = product_nonunit_extend([quot, z3], 0, VertexSet.from_indices([0], 2))
    assert extended == VertexSet.from_indices([0, 2, 4], 6)
    first, second = mixed_char_product_witnesses(quot, z3)
    assert (first, second) == (extended, VertexSet.from_indices([0, 1], 6))
    for found in (extended, first, second):
        assert is_maximal_independent(build_graph(target), found)


def test_a_nested_product_has_the_leaves_of_the_flat_one():
    # strides compose down the nesting, so the nested product indexes its
    # elements as the flat one does
    nested = build_ring(Product((Product((Zn(2), Gf(4))), Mat(2, Zn(2)))))
    flat = _ring("Z2 x GF(4) x M2(Z2)")
    assert isinstance(nested.factors[0], ProductRing)
    for y in range(1, flat.order):
        if not flat.is_unit(y):
            assert nonunit_complement_witness(nested, y) == nonunit_complement_witness(flat, y)


def test_two_size_witnesses_examples():
    a, b = two_size_witnesses(_ring("Z3"))
    assert a.indices() == [1, 2] and b.indices() == [0]
    a9, b9 = two_size_witnesses(_ring("Z9"))
    assert (len(a9), len(b9)) == (2, 3)
    am, bm = two_size_witnesses(_ring("M2(GF(3))"))
    assert (len(am), len(bm)) == (4, 9)
    # several blocks: sets built in the block product are quotient sets
    for expr, sizes in (("Z15", (4, 5)), ("Z45", (4, 15)), ("GF(3) x M2(GF(3))", (8, 81))):
        a, b = two_size_witnesses(_ring(expr))  # verified internally
        assert (len(a), len(b)) == sizes, expr


def test_two_size_witnesses_require_two_a_unit():
    with pytest.raises(ConstructionError):
        two_size_witnesses(_ring("Z4"))
    with pytest.raises(ConstructionError):
        two_size_witnesses(_ring("Z6"))


def test_two_size_witnesses_certify_their_output(monkeypatch):
    real = constructions._zero_row_members

    def short(n, q):
        full = real(n, q)
        # odd size still, and still independent, but no longer maximal
        return VertexSet.from_indices(full.indices()[2:], full.universe)

    ring = _ring("M2(GF(3))")
    build_graph.cache_clear()
    two_size_witnesses(ring)
    assert build_graph.cache_info().misses == 1  # R/J(R) = R needs no second graph
    monkeypatch.setattr(constructions, "_zero_row_members", short)
    with pytest.raises(ConstructionError, match="not a maximal independent set"):
        two_size_witnesses(ring)


def test_lifted_sizes_relate_to_radical():
    ring = _ring("Z27")
    unit_side, nonunit_side = two_size_witnesses(ring)
    rad = jacobson_radical(ring)
    assert len(nonunit_side) == 1 * len(rad)  # zero-first-row of GF(3) is {0}
    assert len(unit_side) == 2


def test_two_size_witnesses_across_block_structures():
    # sizes follow the closed forms: prod of 2^(n_i) on the unit side and
    # (leading-block zero-row size) * (other block orders) * |J| on the other
    expected = {
        "GA(GF(3), C3)": (2, 9),  # one GF(3) block via the coefficient sum, |J| = 9
        "Z3 x GA(GF(3), C3)": (4, 27),  # two GF(3) blocks, |J| = 9
        "Z105": (8, 35),  # residues mod 3, 5, 7: three blocks, |J| = 1
        "Z15": (4, 5),
        "M2(GF(5))": (4, 25),
    }
    for expr, sizes in expected.items():
        ring = _ring(expr)
        a, b = two_size_witnesses(ring)
        assert (len(a), len(b)) == sizes, expr
        assert well_covered_bruteforce(build_graph(ring)) is False, expr

"""Acceptance suite: the headline guarantees, one test per criterion.

Each test prints one PASS line with its runtime; the stated budget is
asserted, so a regression in either correctness or speed fails loudly.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from conftest import CATALOG_EXPRS
from oracles import (
    all_mis_subsets,
    euler_characteristic_faces,
    euler_characteristic_homology,
    matrix_unit_count,
    radical_generic,
)
from unitgraphs.bits import VertexSet
from unitgraphs.classify import classify_cm, classify_well_covered
from unitgraphs.complexes import (
    independence_complex,
    is_cm_gf2,
    is_gorenstein_gf2,
    is_shellable,
)
from unitgraphs.constructions import (
    mixed_char_product_witnesses,
    nonunit_complement_witness,
    signature_set,
    two_size_witnesses,
    zero_first_row_set,
)
from unitgraphs.dsl import parse_ring_expr
from unitgraphs.graphs import build_graph, graphs_equal
from unitgraphs.indsets import enumerate_mis, is_maximal_independent, well_covered_bruteforce
from unitgraphs.rings import (
    build_ring,
    jacobson_radical,
    quotient_by_radical,
)


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.name}: PASS ({elapsed:.2f}s, budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded its runtime budget"
        else:
            print(f"\nACCEPTANCE {self.name}: FAIL after {elapsed:.2f}s")
        return False


def test_criterion_1_classifier_agrees_with_bruteforce_across_catalog():
    with _Budget("1 (classifier vs brute force, full catalog)", 60):
        disagreements = []
        for expr in CATALOG_EXPRS:
            descriptor = parse_ring_expr(expr)
            predicted = classify_well_covered(descriptor)
            if predicted is None:
                continue
            observed = well_covered_bruteforce(build_graph(build_ring(descriptor)))
            if predicted != observed:
                disagreements.append((expr, predicted, observed))
        assert disagreements == []


def test_criterion_2_signature_and_zero_row_sets():
    with _Budget("2 (signature / zero-first-row sets in M2(GF(3)))", 5):
        ring = build_ring(parse_ring_expr("M2(GF(3))"))
        graph = build_graph(ring)
        assert graph.n == 81
        sig = signature_set(2, 3)
        assert len(sig) == 2**2
        assert is_maximal_independent(graph, sig)
        zero_row = zero_first_row_set(2, 3)
        assert len(zero_row) == 9
        assert is_maximal_independent(graph, zero_row)


def test_criterion_3_two_size_witnesses_where_two_is_a_unit():
    with _Budget("3 (two different-size witnesses, 2 a unit)", 30):
        for expr in ("Z3", "Z5", "Z7", "Z9", "GF(9)", "M2(GF(3))"):
            ring = build_ring(parse_ring_expr(expr))
            first, second = two_size_witnesses(ring)  # verified internally
            assert len(first) != len(second), expr
            assert well_covered_bruteforce(build_graph(ring)) is False, expr


def test_criterion_4_complement_witness_exhaustive():
    with _Budget("4 (non-unit complement witnesses, exhaustive)", 10):
        for expr in ("M2(GF(2))", "M2(GF(3))", "GF(3) x GF(3)", "GF(2) x M2(GF(3))"):
            ring = build_ring(parse_ring_expr(expr))
            for y in range(1, ring.order):
                if ring.is_unit(y):
                    continue
                z = nonunit_complement_witness(ring, y)
                assert not ring.is_unit(z), (expr, y)
                assert ring.is_unit(ring.add(y, z)), (expr, y)


def test_criterion_5_unit_equals_cayley_iff_char_two():
    with _Budget("5 (unit graph = unitary Cayley graph iff char(R/J) = 2)", 30):
        for expr in CATALOG_EXPRS:
            ring = build_ring(parse_ring_expr(expr))
            quot = quotient_by_radical(ring)
            same = graphs_equal(
                build_graph(ring, "cayley"), build_graph(ring, "unit")
            )
            assert same == (quot.characteristic == 2), expr


# rings of odd characteristic R/J(R) on which the Cayley graph is
# well-covered (the first four) and on which it is not (the last four)
HEADLINE_EXTRA = (
    "M2(GF(5))",
    "M2(GF(7))",
    "GF(5) x GF(5)",
    "Z3 x Z9",
    "GA(GF(3), C4)",
    "GF(3) x GF(5)",
    "M2(GF(3)) x GF(3)",
    "GF(3) x GF(3) x GF(3)",
)


def test_criterion_5_unit_wc_iff_cayley_wc_and_char_two():
    # the paper's headline equivalence, with both sides by brute force:
    # the unit graph is well-covered iff the unitary Cayley graph is and
    # R/J(R) has characteristic 2
    with _Budget("5 (unit graph wc iff Cayley graph wc and char(R/J) = 2)", 30):
        odd_cayley = {}
        for expr in (*CATALOG_EXPRS, *HEADLINE_EXTRA):
            ring = build_ring(parse_ring_expr(expr))
            unit_wc = well_covered_bruteforce(build_graph(ring, "unit"))
            cayley_wc = well_covered_bruteforce(build_graph(ring, "cayley"))
            assert unit_wc is not None and cayley_wc is not None, expr
            char_two = quotient_by_radical(ring).characteristic == 2
            assert unit_wc == (cayley_wc and char_two), expr
            if not char_two:
                odd_cayley[expr] = cayley_wc
        # both outcomes occur where the characteristic condition fails
        assert [odd_cayley[e] for e in HEADLINE_EXTRA] == [True] * 4 + [False] * 4


def test_criterion_6_coset_union_correspondence():
    with _Budget("6 (maximal sets = radical coset unions when 2 is a zero divisor)", 30):
        listed = ("Z4", "Z8", "Z9", "M2(Z4)")
        for expr in listed:
            ring = build_ring(parse_ring_expr(expr))
            quot = quotient_by_radical(ring)
            two_unit = ring.is_unit(ring.add(ring.one, ring.one))
            rad = quot.radical.indices()
            lifted = set()
            for qset in enumerate_mis(build_graph(quot)).sets:
                mask = 0
                for a in qset:
                    for j in rad:
                        mask |= 1 << ring.add(quot.representatives[a], j)
                lifted.add(mask)
            actual = {s.mask for s in enumerate_mis(build_graph(ring)).sets}
            if not two_unit:
                assert lifted == actual, expr  # the bijection
            else:
                # Z9: 2 is a unit, and the correspondence genuinely fails
                assert expr == "Z9"
                assert lifted != actual, expr


def test_criterion_7_cm_shellable_gorenstein_desk_scale():
    with _Budget("7 (CM / shellable / Gorenstein vs classification)", 60):
        expected = {
            "Z2": (True, True, True),
            "Z2 x Z2": (True, True, True),
            "GF(4)": (True, True, False),
            "Z4": (False, False, False),
            "M2(GF(2))": (False, False, False),
        }
        for expr, (want_cm, want_shell, want_gor) in expected.items():
            descriptor = parse_ring_expr(expr)
            predicted = classify_cm(descriptor)
            assert (
                predicted["cm"],
                predicted["shellable"],
                predicted["gorenstein"],
            ) == (want_cm, want_shell, want_gor), expr
            complex_ = independence_complex(build_graph(build_ring(descriptor)))
            assert is_cm_gf2(complex_) == want_cm, expr
            assert is_shellable(complex_, facet_cap=30) == want_shell, expr
            assert is_gorenstein_gf2(complex_) == want_gor, expr


def test_criterion_8_counting_identities_exact():
    with _Budget("8 (counting identities, exact)", 30):
        # invertible-matrix counts: q in 2..9 restricted to prime powers
        for q in (2, 3, 4, 5, 7, 8, 9):
            ring = build_ring(parse_ring_expr(f"GF({q})"))
            assert len(ring.unit_set) == matrix_unit_count(1, q)
        for n, q in ((2, 2), (2, 3)):
            ring = build_ring(parse_ring_expr(f"M{n}(GF({q}))"))
            assert len(ring.unit_set) == matrix_unit_count(n, q)

        # lifted set size = quotient set size * radical size
        from unitgraphs.constructions import lift_nonunit_mis

        for expr, qset in (
            ("Z4", [0]),
            ("Z8", [0]),
            ("Z9", [0]),
            ("M2(Z4)", list(zero_first_row_set(2, 2))),
        ):
            ring = build_ring(parse_ring_expr(expr))
            quot = quotient_by_radical(ring)
            vs = VertexSet.from_indices(qset, quot.order)
            lifted = lift_nonunit_mis(ring, vs)
            assert len(lifted) == len(vs) * len(quot.radical), expr

        # second witness size = |R| + |M||X| - |M|
        for r_expr, s_expr in (("Z2", "Z3"), ("GF(4)", "Z3"), ("Z2", "Z5")):
            r = build_ring(parse_ring_expr(r_expr))
            s = build_ring(parse_ring_expr(s_expr))
            m_times_s, n_set = mixed_char_product_witnesses(r, s)
            m_size = len(m_times_s) // s.order
            x_size = s.order - len(s.unit_set)
            assert len(n_set) == r.order + m_size * x_size - m_size, (r_expr, s_expr)


def test_criterion_9_property_suites():
    with _Budget("9 (ring axioms, radicals, degrees, Euler, subset oracle)", 60):
        rng = np.random.default_rng(9)
        for expr in CATALOG_EXPRS:
            ring = build_ring(parse_ring_expr(expr))
            n = ring.order
            # ring axioms on the kernels: exhaustive at small order, sampled above
            x, y, z = (
                np.indices((n, n, n)).reshape(3, -1) if n <= 16 else rng.integers(0, n, (3, 500))
            )
            add, mul = ring.add_many, ring.mul_many
            assert np.array_equal(add(add(x, y), z), add(x, add(y, z))), expr
            assert np.array_equal(mul(mul(x, y), z), mul(x, mul(y, z))), expr
            assert np.array_equal(mul(x, add(y, z)), add(mul(x, y), mul(x, z))), expr
            # radical two ways
            assert jacobson_radical(ring).mask == radical_generic(ring), expr
            # unit-graph degree formula
            graph = build_graph(ring)
            units = len(ring.unit_set)
            for x in range(n):
                expected = units - 1 if ring.is_unit(ring.add(x, x)) else units
                assert graph.degree(x) == expected, expr
            # Euler characteristic consistency and the subset oracle
            if n <= 16:
                complex_ = independence_complex(graph)
                assert euler_characteristic_faces(complex_) == (
                    euler_characteristic_homology(complex_)
                ), expr
                assert {s.mask for s in enumerate_mis(graph).sets} == (
                    all_mis_subsets(graph)
                ), expr

import json
import random
import time

import pytest

from unitgraphs.complexes import (
    BudgetExceeded,
    ComplexError,
    SimplicialComplex,
    _gf2_rank,
    complex_from_json,
    euler_characteristic_faces,
    euler_characteristic_homology,
    facets_to_json,
    find_shelling,
    independence_complex,
    is_cm_gf2,
    is_gorenstein_gf2,
    is_pure,
    is_shellable,
    link,
    reduced_homology_gf2,
)
from unitgraphs.dsl import parse_ring_expr
from unitgraphs.graphs import Graph, build_graph
from unitgraphs.rings import build_ring


def _complex(expr):
    return independence_complex(build_graph(build_ring(parse_ring_expr(expr))))


def _from_facets(n, facets):
    return SimplicialComplex.from_facets(n, facets)


def test_independence_complex_examples():
    c = _complex("Z2 x Z2")
    assert c.facet_lists() == [[0, 1], [0, 2], [1, 3], [2, 3]]  # a 4-cycle
    c4 = _complex("GF(4)")
    assert c4.facet_lists() == [[0], [1], [2], [3]]
    edgeless = independence_complex(Graph(3, "imported", [0, 0, 0]))
    assert edgeless.facet_lists() == [[0, 1, 2]]
    # the empty graph's complex is {empty face}, not the void complex
    assert independence_complex(Graph(0, "imported", [])).facet_lists() == [[]]


def test_facets_are_maximal_and_sorted():
    c = _from_facets(4, [[1, 0], [0, 1], [0], [2, 3]])
    assert c.facet_lists() == [[0, 1], [2, 3]]  # dedup + containment removed
    assert c.dimension == 1


def test_is_pure():
    assert is_pure(_complex("Z2 x Z2"))
    assert not is_pure(_from_facets(3, [[0], [1, 2]]))
    assert not is_pure(_complex("Z3"))


def test_shellability_examples():
    assert is_shellable(_from_facets(3, [[0, 1, 2]])) is True
    assert is_shellable(_from_facets(4, [[0, 1], [2, 3]])) is False
    assert is_shellable(_complex("Z2 x Z2")) is True


def test_shelling_order_is_returned_for_the_cycle():
    c = _complex("Z2 x Z2")
    order = find_shelling(c)
    assert order is not None and len(order) == 4


def test_nonpure_is_not_shellable():
    assert is_shellable(_from_facets(3, [[0], [1, 2]])) is False


def test_shellability_budget_returns_undecided():
    facets = [[i, (i + 1) % 20] for i in range(20)]  # a 20-cycle
    c = _from_facets(20, facets)
    assert is_shellable(c, facet_cap=12) is None
    assert is_shellable(c, facet_cap=25) is True


def test_homology_examples():
    cycle = _complex("Z2 x Z2")
    assert reduced_homology_gf2(cycle) == [0, 0, 1]  # a circle
    simplex = _from_facets(3, [[0, 1, 2]])
    assert reduced_homology_gf2(simplex) == [0, 0, 0, 0]  # dims -1..2, all zero
    two_points = _from_facets(2, [[0], [1]])
    assert reduced_homology_gf2(two_points) == [0, 1]
    empty = _from_facets(0, [[]])
    assert reduced_homology_gf2(empty) == [1]
    void = SimplicialComplex(0, [])
    assert reduced_homology_gf2(void) == []


def test_homology_of_sphere_join():
    # the unit graph of Z2^3 is a perfect matching on 8 vertices, so the
    # complex is a join of four vertex pairs: a 3-sphere
    c = _complex("Z2 x Z2 x Z2")
    assert c.dimension == 3 and len(c.facets) == 16
    assert reduced_homology_gf2(c) == [0, 0, 0, 0, 1]


def test_euler_characteristic_consistency(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 100:
            continue
        c = independence_complex(build_graph(ring))
        assert euler_characteristic_faces(c) == euler_characteristic_homology(c), expr


def test_purity_equals_well_coveredness(catalog_descriptors):
    from unitgraphs.indsets import well_covered_bruteforce

    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 100:
            continue
        g = build_graph(ring)
        assert is_pure(independence_complex(g)) == well_covered_bruteforce(g), expr


def test_link_examples():
    cycle = _complex("Z2 x Z2")
    lk = link(cycle, 1 << 0)  # link of a vertex: its two neighbours, as points
    assert lk.facet_lists() == [[1], [2]]
    lk_edge = link(cycle, (1 << 0) | (1 << 1))
    assert lk_edge.facet_lists() == [[]]


def test_cm_examples():
    assert is_cm_gf2(_from_facets(4, [[0], [1], [2], [3]])) is True
    assert is_cm_gf2(_from_facets(4, [[0, 1], [2, 3]])) is False
    assert is_cm_gf2(_complex("M2(GF(2))")) is False


def test_gorenstein_examples():
    assert is_gorenstein_gf2(_complex("Z2 x Z2")) is True  # the 4-cycle
    assert is_gorenstein_gf2(_complex("GF(4)")) is False  # 4 points
    assert is_gorenstein_gf2(_complex("Z2")) is True  # 2 points


def test_gorenstein_full_simplex_has_trivial_core():
    c = _from_facets(3, [[0, 1, 2]])
    assert is_gorenstein_gf2(c) is True
    assert is_cm_gf2(c) is True


def test_shellable_implies_cm(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 20:
            continue
        c = independence_complex(build_graph(ring))
        verdict = is_shellable(c, facet_cap=20)
        if verdict is True:
            assert is_cm_gf2(c) is True, expr


def test_gorenstein_implies_cm(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 20:
            continue
        c = independence_complex(build_graph(ring))
        if is_gorenstein_gf2(c):
            assert is_cm_gf2(c), expr


def test_zero_dimensional_complexes_are_cm():
    for k in (1, 2, 3, 7):
        c = _from_facets(k, [[i] for i in range(k)])
        assert is_cm_gf2(c) is True


def test_face_budget_guard():
    c = _from_facets(20, [list(range(20))])
    with pytest.raises(BudgetExceeded):
        c.faces(face_cap=1000)
    with pytest.raises(BudgetExceeded):
        reduced_homology_gf2(c, face_cap=1000)


def test_facets_json_round_trip():
    c = _complex("Z2 x Z2")
    text = facets_to_json(c)
    assert json.loads(text) == [[0, 1], [0, 2], [1, 3], [2, 3]]
    back = complex_from_json(text)
    assert back.facets == c.facets
    explicit = complex_from_json(text, vertex_count=10)
    assert explicit.vertex_count == 10
    assert complex_from_json("[[65535]]").vertex_count == 65536
    with pytest.raises(ComplexError):
        complex_from_json("[[65536]]")  # vertex indices stay below 2^16
    with pytest.raises(ComplexError):
        complex_from_json("[[true, false]]")  # JSON booleans are not indices


def test_large_pure_complex_builds_within_budget():
    # the cross-polytope boundary on 28 vertices: one facet per choice of
    # vertex 2i or 2i+1 for each of 14 pairs, 2^14 facets of one size
    pairs = 14
    masks = []
    for choice in range(1 << pairs):
        masks.append(sum(1 << (2 * i + ((choice >> i) & 1)) for i in range(pairs)))
    start = time.perf_counter()
    c = SimplicialComplex(2 * pairs, masks + [0b1, 0b101])  # two non-facets
    elapsed = time.perf_counter() - start
    assert set(c.facets) == set(masks) and is_pure(c)
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_gf2_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.GF(2)
    rng = random.Random(5)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 3)]
    shapes += [(rng.randint(1, 6), rng.randint(10, 40)) for _ in range(60)]  # wide
    shapes += [(rng.randint(10, 40), rng.randint(1, 6)) for _ in range(60)]  # tall
    shapes += [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(100)]
    for case, (rows, cols) in enumerate(shapes):
        density = (0.0, 0.1, 0.5, 0.9)[case % 4]  # every fourth is all zero
        bits = [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
        int_rows = [sum(b << i for i, b in enumerate(row)) for row in bits]
        ref = DomainMatrix([[field(b) for b in row] for row in bits], (rows, cols), field)
        assert _gf2_rank(int_rows) == ref.rank(), (rows, cols, bits)

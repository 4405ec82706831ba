import json
import random
import re
import time
from collections import Counter

import pytest

from conftest import CATALOG_EXPRS
from oracles import asymmetric_pair, euler_characteristic_faces, euler_characteristic_homology
from unitgraphs.complexes import (
    DEFAULT_FACET_CAP,
    BudgetExceeded,
    ComplexError,
    SimplicialComplex,
    _every_link,
    _gf2_rank,
    _graph_reisner,
    complex_from_json,
    facets_to_json,
    find_shelling,
    ind_reisner,
    independence_complex,
    is_cm_gf2,
    is_gorenstein_gf2,
    is_pure,
    is_shellable,
    join_factors,
    join_verdicts,
    link,
    reduced_homology_gf2,
)
from unitgraphs import cli, complexes, indsets
from unitgraphs.bits import mask_indices
from unitgraphs.classify import cross_validate
from unitgraphs.dsl import parse_ring_expr
from unitgraphs.graphs import Graph, build_graph, connected_components
from unitgraphs.indsets import Component, enumerate_mis
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


@pytest.mark.parametrize("facets, vertex", [([[-1, 0]], -1), ([[0, 3]], 3), ([[1], [2, -5]], -5)])
def test_a_vertex_outside_the_complex_is_named(facets, vertex):
    with pytest.raises(ComplexError, match=f"facet has vertex {vertex} outside the complex"):
        _from_facets(3, facets)


def test_from_facets_takes_only_integer_vertices():
    # int() once turned "1" and 2.9 into vertices 1 and 2, and absorbed
    # [True] into the facet as vertex 1
    for facets, entry in [([[0, 1], ["1", 2.9], [True]], "['1', 2.9]"),
                          ([[0], [True]], "[True]"), ([[0, 1.0]], "[0, 1.0]")]:
        with pytest.raises(ComplexError, match=re.escape(f"bad facet entry {entry}")):
            _from_facets(3, facets)
    assert _from_facets(3, [(0, 1), range(1, 3)]).facet_lists() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("masks, entry", [
    ([2.9, "5", True], "2.9"), (["5"], "'5'"), ([1, True], "True"),
    ([3, -3], "-3"), ([5, -1], "-1"), ([-2], "-2"),
])
def test_the_constructor_takes_only_nonnegative_int_masks(masks, entry):
    # int() would read 2.9, "5" and True as masks 2, 5 and 1, and
    # deduplication would fold True into 1; a negative mask has no finite
    # set of vertices to list
    with pytest.raises(ComplexError, match=re.escape(f"bad facet mask {entry}: masks are")):
        SimplicialComplex(3, masks)
    assert SimplicialComplex(3, iter([0b011, 0b110])).facet_lists() == [[0, 1], [1, 2]]


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


def test_facet_cap_must_be_a_nonnegative_int():
    c = _from_facets(3, [[0], [1, 2]])
    z4 = parse_ring_expr("Z4")
    for cap in ("x", None, 2.0, True, -1):
        for call in (
            lambda: find_shelling(c, facet_cap=cap),
            lambda: is_shellable(c, facet_cap=cap),
            lambda: join_verdicts([], ["shellable"], facet_cap=cap),
            lambda: cross_validate(z4, ("wc",), facet_cap=cap),
            lambda: cross_validate(z4, (), facet_cap=cap),
        ):
            with pytest.raises(ComplexError, match="bad facet_cap"):
                call()


def test_shelling_node_budget_is_read_at_call_time(monkeypatch):
    c = _from_facets(20, [[i, (i + 1) % 20] for i in range(20)])  # a 20-cycle
    monkeypatch.setattr(complexes, "DEFAULT_SHELLING_NODE_CAP", 19)
    with pytest.raises(BudgetExceeded, match="node budget"):
        find_shelling(c, facet_cap=25)
    assert is_shellable(c, facet_cap=25) is None


def test_points_are_shellable_without_a_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("shelling search reached")

    monkeypatch.setattr(complexes, "find_shelling", refuse)
    points = _from_facets(13, [[v] for v in range(13)])  # over the 12-facet cap
    assert is_shellable(points) is True
    assert is_shellable(_from_facets(0, [[]])) is True


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


def test_link_refuses_a_mask_that_is_not_a_face():
    # Ind of Z4's unit graph, the 4-cycle: facets {0, 2} and {1, 3}; the
    # link of -1 was once a void complex of dimension -2
    c = _complex("Z4")
    assert c.facet_lists() == [[0, 2], [1, 3]]
    assert link(c, 0).facets == c.facets
    cases = {
        -1: "bad face mask -1",
        True: "bad face mask True",
        1 << 4: "vertex 4 outside the complex",
        0b11: r"\[0, 1\] is not a face",
    }
    for mask, message in cases.items():
        with pytest.raises(ComplexError, match=message):
            link(c, mask)
    with pytest.raises(ComplexError, match=r"\[\] is not a face"):
        link(SimplicialComplex(2, []), 0)


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


def test_face_budget_guard(monkeypatch):
    c = _from_facets(20, [list(range(20))])
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 1000)
    with pytest.raises(BudgetExceeded, match="more than 1000 faces"):
        c.faces()
    with pytest.raises(BudgetExceeded, match="more than 1000 faces"):
        reduced_homology_gf2(c)


def test_facets_json_round_trip():
    c = _complex("Z2 x Z2")
    text = facets_to_json(c)
    assert json.loads(text) == [[0, 1], [0, 2], [1, 3], [2, 3]]
    back = complex_from_json(text)
    assert back.facets == c.facets
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


# ---------------------------------------------------------------------------
# pre-checks and the join rule against a plain Reisner walk
# ---------------------------------------------------------------------------

def _plain_link(c, sigma):
    return SimplicialComplex(c.vertex_count, [f & ~sigma for f in c.facets if f & sigma == sigma])


def _plain_walk(c, top_ok):
    """Reisner's criterion face by face: no pre-checks, no incidence."""
    seen = {}
    for sigma in c.faces():
        lk = _plain_link(c, sigma)
        if lk.facets not in seen:
            ranks = reduced_homology_gf2(lk)
            seen[lk.facets] = not any(ranks[:-1]) and top_ok(ranks[-1])
        if not seen[lk.facets]:
            return False
    return True


def _plain_cm(c):
    return _plain_walk(c, lambda top: True)


def _plain_gorenstein(c):
    common = c.facets[0]
    for f in c.facets:
        common &= f
    core = SimplicialComplex(c.vertex_count, [f & ~common for f in c.facets])
    return _plain_walk(core, lambda top: top == 1)


def _random_complexes(seed, count):
    rng = random.Random(seed)
    for case in range(count):
        n = rng.randint(1, 8)
        size = rng.randint(0, min(n, 4))
        facets = []
        for _ in range(rng.randint(1, 7)):
            # every third complex draws all facets of one size
            k = size if case % 3 == 0 else rng.randint(0, min(n, 4))
            facets.append(rng.sample(range(n), k))
        yield _from_facets(n, facets)


def test_facets_links_and_verdicts_match_the_plain_definitions():
    for c in _random_complexes(11, 400):
        masks = [sum(1 << v for v in f) for f in c.facet_lists()]
        assert all(not (m & o == m and m != o) for m in masks for o in masks)
        for sigma in c.faces():
            assert link(c, sigma).facets == _plain_link(c, sigma).facets
        assert is_cm_gf2(c) == _plain_cm(c), c.facet_lists()
        assert is_gorenstein_gf2(c) == _plain_gorenstein(c), c.facet_lists()


def test_maximality_filter_matches_pairwise_containment():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 10)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(1, 12))]
        want = {m for m in masks if not any(m & o == m and m != o for o in masks)}
        assert set(SimplicialComplex(n, masks).facets) == want


def test_prechecks_decide_before_listing_faces(monkeypatch):
    def refuse(self):
        raise AssertionError("faces were listed")

    monkeypatch.setattr(SimplicialComplex, "faces", refuse)
    two_simplices = _from_facets(60, [range(30), range(30, 60)])  # 2^31 faces
    assert is_cm_gf2(two_simplices) is False
    assert is_gorenstein_gf2(two_simplices) is False
    not_pure = _from_facets(31, [range(30), [30]])
    assert is_cm_gf2(not_pure) is False
    assert is_gorenstein_gf2(not_pure) is False


def test_join_rule_matches_the_whole_complex(catalog_descriptors, capsys):
    checks = ("wc", "cm", "shellable", "gorenstein")
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 64:
            continue
        whole = independence_complex(build_graph(ring))
        observed = cross_validate(descriptor, checks, facet_cap=20).observed
        assert cli.main(["complex", expr, "--pure", "--shellable", "--cm",
                         "--gorenstein", "--facet-cap", "20"]) == 0, expr
        shown = json.loads(capsys.readouterr().out)["result"]
        assert shown["facets"] == len(whole.facets), expr
        assert shown["dimension"] == whole.dimension, expr
        assert observed["well_covered"] == shown["pure"] == is_pure(whole), expr
        cm = _plain_cm(whole)
        assert observed["cm_gf2"] == shown["cm_gf2"] == cm, expr
        gorenstein = _plain_gorenstein(whole)
        assert observed["gorenstein_gf2"] == shown["gorenstein_gf2"] == gorenstein, expr
        shellable = is_shellable(whole, facet_cap=20)
        if shellable is not None:
            assert observed["shellable"] == shown["shellable"] == shellable, expr
        else:  # too many facets to search whole; shellable implies CM
            assert cm or observed["shellable"] is not True, expr
            assert cm or shown["shellable"] is not True, expr


def _random_graph(rng, n):
    p = rng.random()
    rows = [0] * n
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < p:
                rows[x] |= 1 << y
                rows[y] |= 1 << x
    return Graph(n, "imported", rows)


def test_join_verdicts_match_the_whole_complex_on_random_graphs():
    keys = ["well_covered", "cm_gf2", "shellable", "gorenstein_gf2"]
    rng = random.Random(17)
    shapes = Counter()
    for _ in range(200):
        g = _random_graph(rng, rng.randint(0, 10))
        factors = list(join_factors(g))
        got = join_verdicts(factors, keys)
        whole = independence_complex(g)
        facets = whole.facet_lists()
        assert got["well_covered"] == is_pure(whole), facets
        assert got["cm_gf2"] == _plain_cm(whole), facets
        assert got["gorenstein_gf2"] == _plain_gorenstein(whole), facets
        shellable = is_shellable(whole)
        if shellable is not None:  # then no factor has more facets than the cap
            assert got["shellable"] == shellable, facets
        assert all(isinstance(c, Component) for c in factors)
        # a component whose search met two facet sizes is the last factor,
        # and decides every verdict False
        split = [c.report.stop_reason == "two_sizes" for c in factors]
        if any(split):
            assert split.index(True) == len(factors) - 1
            assert set(got.values()) == {False}, facets
        shapes[any(split), len(factors) > 1] += 1
    assert all(shapes[key] for key in [(True, True), (True, False), (False, True)]), shapes


def test_empty_graph_gives_the_empty_face_and_true_verdicts():
    empty = Graph(0, "imported", [])
    assert connected_components(empty) == []
    c = independence_complex(empty)
    assert c.facets == (0,)
    assert is_cm_gf2(c) is True
    assert is_gorenstein_gf2(c) is True
    assert is_shellable(c) is True


def test_join_decides_boolean_rings(capsys):
    # Z2^5: 16 components K2, a join of 16 copies of S^0 (2^16 facets whole,
    # more faces than the face cap)
    expr = " x ".join(["Z2"] * 5)
    report = cross_validate(parse_ring_expr(expr), ("wc", "cm", "shellable", "gorenstein"))
    assert report.observed == {
        "well_covered": True, "cm_gf2": True, "shellable": True, "gorenstein_gf2": True,
    }
    start = time.monotonic()
    code = cli.main(["complex", expr, "--pure", "--shellable", "--cm", "--gorenstein"])
    assert time.monotonic() - start < 1.0
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"] == {
        "facets": 65536, "dimension": 15,
        "pure": True, "shellable": True, "cm_gf2": True, "gorenstein_gf2": True,
    }


# ---------------------------------------------------------------------------
# the vertex-link recursion on graphs against the face walk
# ---------------------------------------------------------------------------

def _agreement_graph(rng, case):
    """Graphs on 0-10 vertices, a quarter of each kind: disjoint unions of
    cliques, whose complexes are joins of point sets and so CM; two
    random graphs side by side; one random graph; and complete bipartite
    graphs K_{a,b}, half of them with a = b (a pure complex of two
    simplices) and half with an isolated vertex, whose cone over that is
    connected."""
    if case % 4 == 3:
        a = rng.randint(1, 4)
        b = a if rng.random() < 0.5 else rng.randint(1, 4)
        cone = rng.random() < 0.5
        left, right = (1 << a) - 1, ((1 << b) - 1) << a
        rows = [right] * a + [left] * b + [0] * cone
        return Graph(a + b + cone, "imported", rows)
    n = rng.randint(0, 10)
    if case % 4 == 0:
        rows, start = [0] * n, 0
        while start < n:
            end = rng.randint(start + 1, n)
            block = ((1 << end) - 1) ^ ((1 << start) - 1)
            for v in range(start, end):
                rows[v] = block & ~(1 << v)
            start = end
        return Graph(n, "imported", rows)
    if case % 4 == 1:
        left, right = _random_graph(rng, n // 2), _random_graph(rng, n - n // 2)
        rows = list(left.rows) + [r << left.n for r in right.rows]
        return Graph(n, "imported", rows)
    return _random_graph(rng, n)


def test_graph_recursion_matches_the_face_walk_on_random_graphs(monkeypatch):
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 10**4)
    rng = random.Random(23)
    shapes = Counter()
    for case in range(400):
        g = _agreement_graph(rng, case)
        c = independence_complex(g)  # a facet complex: its judges walk faces
        facets = c.facet_lists()
        walked = {"cm_gf2": is_cm_gf2(c), "gorenstein_gf2": is_gorenstein_gf2(c)}
        assert join_verdicts(list(join_factors(g)), list(walked)) == walked, facets
        # the recursion alone, without the pre-checks, on the whole complex
        # and on its core (the isolated vertices dropped)
        full = (1 << g.n) - 1
        isolated = sum(1 << v for v in range(g.n) if not g.rows[v])
        core = SimplicialComplex(g.n, [f & ~isolated for f in c.facets])
        cm = _graph_reisner(g.rows, full, lambda top: True)
        gorenstein = _graph_reisner(g.rows, full & ~isolated, lambda top: top == 1)
        assert cm == _every_link(c, lambda top: True), facets
        assert gorenstein == _every_link(core, lambda top: top == 1), facets
        shapes["isolated"] += bool(isolated)
        shapes["disconnected"] += len(connected_components(g)) > 1
        shapes["not pure"] += not is_pure(c)
        shapes["cm"] += cm
        shapes["gorenstein"] += gorenstein
        passes_prechecks = is_pure(c) and (c.dimension < 1 or complexes._connected(c))
        shapes["decided past the pre-checks"] += passes_prechecks and not cm
    assert all(shapes[k] >= 20 for k in
               ["isolated", "disconnected", "not pure", "cm", "gorenstein"]), shapes
    assert shapes["decided past the pre-checks"] >= 10, shapes


# the unit graphs of the benchmark's oracle workload
ORACLE_EXPRS = [
    "Z1024", "Z2048", "M2(Z4)", "M2(GF(3))", "M2(GF(4))", "GA(GF(2), Q8)", "Z8 x Z8",
    "GF(8) x GF(8)", "GA(GF(3), C4)", "GA(GF(2), C6)", "GA(GF(3), C2)",
    " x ".join(["Z2"] * 6), " x ".join(["Z2"] * 5),
]
VERDICT_KEYS = ["well_covered", "cm_gf2", "shellable", "gorenstein_gf2"]


def _face_walk_verdicts(g, facets):
    """The verdicts on the whole complex Ind(g), given by its facets, so
    the CM and Gorenstein tests walk its faces; a verdict the walk does
    not decide (a cap hit) is left out."""
    whole = SimplicialComplex(g.n, facets)
    oracles = {"well_covered": is_pure, "cm_gf2": is_cm_gf2,
               "shellable": is_shellable, "gorenstein_gf2": is_gorenstein_gf2}
    verdicts = {}
    for key, oracle in oracles.items():
        try:
            verdict = oracle(whole)
        except BudgetExceeded:
            continue
        if verdict is not None:
            verdicts[key] = verdict
    return whole, verdicts


def test_join_verdicts_on_graphs_match_the_whole_complex_face_walk(monkeypatch):
    # Every verdict is read off the components' subgraphs and reports;
    # wherever the face walk over the whole listed complex decides, the
    # two agree.  A family is listed only for a shelling search, of a
    # pure CM component of at most facet_cap facets.
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 10**4)
    built, listed = [], []
    real_init, real_enumerate = SimplicialComplex.__init__, complexes.enumerate_mis

    def counting(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def spying(g, **kwargs):
        if kwargs.get("collect", True):
            listed.append(g)
        return real_enumerate(g, **kwargs)

    rng = random.Random(29)
    graphs = [(f"random {case}", _agreement_graph(rng, case)) for case in range(400)]
    graphs += [(expr, build_graph(build_ring(parse_ring_expr(expr))))
               for expr in [*CATALOG_EXPRS, *ORACLE_EXPRS]]
    # Ind of the complement of the n-cycle is the n-cycle, a circle: pure,
    # CM and shellable, with n facets, over the facet cap from n = 13 on
    for n in range(4, 16):
        full = (1 << n) - 1
        rows = [full ^ (1 << v | 1 << (v + 1) % n | 1 << (v - 1) % n) for v in range(n)]
        graphs.append((f"complement of C{n}", Graph(n, "imported", rows)))
    shapes = Counter()
    for name, g in graphs:
        family = enumerate_mis(g, max_sets=10**5)
        if not family.truncated:  # Z2^6 has 2^32 facets: no whole complex to walk
            whole, want = _face_walk_verdicts(g, [s.mask for s in family.sets])
            # the complement of g is the 1-skeleton of Ind(g), also with the
            # isolated vertices deleted, as the Gorenstein test judges it
            full = (1 << g.n) - 1
            isolated = sum(1 << v for v in range(g.n) if not g.rows[v])
            core = SimplicialComplex(g.n, [f & ~isolated for f in whole.facets])
            for mask, c in [(full, whole), (full & ~isolated, core)] if g.n else []:
                assert complexes._complement_connected(g.rows, mask) == complexes._connected(c), name
            shapes["walked"] += 1
            shapes["decided"] += len(want)
        built.clear()
        listed.clear()
        with monkeypatch.context() as m:
            m.setattr(SimplicialComplex, "__init__", counting)
            m.setattr(complexes, "enumerate_mis", spying)
            m.setattr(indsets, "enumerate_mis", spying)
            factors = list(join_factors(g))
            got = join_verdicts(factors, VERDICT_KEYS)
        if not family.truncated:
            assert {key: got[key] for key in want} == want, name
        # the component searches list nothing; each listing is a shelling
        # search of a pure CM component of at most facet_cap facets
        assert len(built) == len(listed), name
        for h in listed:
            (found,) = [f.report for f in factors if f.graph is h]
            assert len(found.sizes_seen) == 1 and found.count <= DEFAULT_FACET_CAP, name
            assert is_cm_gf2(independence_complex(h)), name
        shapes["listed"] += bool(listed)
        shapes["cm"] += got["cm_gf2"] is True
        shapes["not cm"] += got["cm_gf2"] is False
    assert shapes["walked"] == len(graphs) - 1, shapes
    assert shapes["listed"] >= 5 and shapes["cm"] >= 20 and shapes["not cm"] >= 20, shapes


def test_graph_recursion_reads_only_adjacency_rows(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("faces were listed")

    monkeypatch.setattr(SimplicialComplex, "faces", refuse)
    monkeypatch.setattr(complexes, "_every_link", refuse)
    # the 5-cycle, built from rows with no ring: Ind(C5) is again a 5-cycle,
    # a circle, so CM and Gorenstein; every pre-check passes
    c5 = Graph(5, "imported", [0b10010, 0b00101, 0b01010, 0b10100, 0b01001])
    assert c5.ring_expr is None
    keys = ["cm_gf2", "gorenstein_gf2"]
    assert join_verdicts(list(join_factors(c5)), keys) == dict.fromkeys(keys, True)
    # a 4-cycle plus an isolated vertex 0: Ind is two triangles sharing
    # vertex 0, pure and connected; the link of 0, two disjoint edges, is
    # not.  join_factors splits vertex 0 off, so ind_reisner judges the
    # cone whole, and the join agrees
    bowtie = Graph(5, "imported", [0, 0b11000, 0b11000, 0b00110, 0b00110])
    c = independence_complex(bowtie)
    assert is_pure(c) and c.dimension == 2
    assert ind_reisner(bowtie.rows, c.dimension, lambda top: True) is False
    assert join_verdicts(list(join_factors(bowtie)), keys) == dict.fromkeys(keys, False)


def test_graph_recursion_needs_no_python_recursion():
    # the path on 1500 vertices: the link of vertex 0 is the path on
    # vertices 2.., whose link of vertex 2 is the path on 4.., and so on,
    # about 750 links deep, far beyond the default recursion limit
    n = 1500
    rows = [(1 << (v - 1) if v else 0) | (1 << (v + 1) if v < n - 1 else 0) for v in range(n)]
    assert asymmetric_pair(Graph(n, "imported", rows)) is None
    for top_ok in (lambda top: True, lambda top: top == 1):
        try:
            verdict = _graph_reisner(rows, (1 << n) - 1, top_ok)
        except BudgetExceeded as exc:
            assert "distinct links" in str(exc)
        else:
            assert verdict is False  # the path on 3 vertices is not pure


def test_graph_recursion_caps_distinct_links(monkeypatch):
    # the 5-cycle: its vertex links are 5 edges K2, each with 3 faces, and
    # its own complex, a circle, has 11
    c5 = [0b10010, 0b00101, 0b01010, 0b10100, 0b01001]
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 11)
    assert _graph_reisner(c5, 0b11111, lambda top: True) is True
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 3)
    with pytest.raises(BudgetExceeded, match="more than 3 distinct links"):
        _graph_reisner(c5, 0b11111, lambda top: True)
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 2)
    with pytest.raises(BudgetExceeded, match="more than 2 faces"):
        _graph_reisner(c5, 0b11111, lambda top: True)


def test_canonical_key_orders_like_index_lists():
    # 300 random families of widths 1..4096, each with the empty set and
    # with subsets of its members, so that prefixes of index lists occur
    rng = random.Random(20241019)
    for _ in range(300):
        width = rng.choice((1, 2, 3, 5, 8, 13, 64, 200, 1000, 4096))
        family = {0, *(rng.getrandbits(width) for _ in range(rng.randint(1, 40)))}
        family |= {m & rng.getrandbits(width) for m in family}
        masks = sorted(family)
        rng.shuffle(masks)
        assert sorted(masks, key=complexes._canonical_key) == sorted(masks, key=mask_indices)

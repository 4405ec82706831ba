import json
import random

import pytest

from oracles import asymmetric_pair, rows_from_json
from unitgraphs import rings
from unitgraphs.bits import HARD_ORDER_CAP
from unitgraphs.descriptors import Gf, Mat, Zn
from unitgraphs.dsl import parse_ring_expr
from unitgraphs.graphs import (
    DEFAULT_GRAPH_CAP,
    Graph,
    KINDS,
    GraphError,
    build_graph,
    graph_to_dot,
    graph_to_json,
    graphs_equal,
)
from unitgraphs.rings import build_ring, quotient_by_radical


def _edges(expr, kind="unit"):
    return build_graph(build_ring(parse_ring_expr(expr)), kind).edges()


def test_unit_graph_examples():
    assert _edges("Z4") == [(0, 1), (0, 3), (1, 2), (2, 3)]  # a 4-cycle
    g = build_graph(build_ring(Gf(4)))
    assert g.edge_count() == 6  # complete on 4 vertices
    g9 = build_graph(build_ring(Zn(9)))
    assert (g9.rows[1] >> 4) & 1  # 1 + 4 = 5 is a unit mod 9


def test_graph_is_loop_free_and_symmetric(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        for kind in ("unit", "cayley"):
            assert asymmetric_pair(build_graph(ring, kind)) is None, (expr, kind)


def _scalar_rows(ring, kind, xs):
    """Rows of the graph straight from the definition: x + y for the unit
    graph, x - y = x + (-y) for the Cayley graph."""
    ys = range(ring.order)
    others = ys if kind == "unit" else [ring.neg(y) for y in ys]
    add, is_unit = ring.add, ring.is_unit
    return [
        sum(1 << y for y, o in zip(ys, others) if y != x and is_unit(add(x, o)))
        for x in xs
    ]


def test_graph_rows_match_the_definition(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        for r in (ring, quotient_by_radical(ring)):
            for kind in ("unit", "cayley"):
                assert list(build_graph(r, kind).rows) == _scalar_rows(
                    r, kind, range(r.order)
                ), (expr, r, kind)


def test_graph_rows_at_the_cap_match_the_definition():
    rng = random.Random(20261018)
    # M2(GF(7)): 2 is a unit, so the unit rows drop bit x at every unit;
    # the Z2 product: every digit is binary, so the unit rows are T itself
    exprs = ("Z4096", "M2(Z8)", "GF(4096)", "GA(GF(3), C7)", "Z9 x M2(Z4)",
             "M2(GF(7))", " x ".join(["Z2"] * 12))
    for expr in exprs:
        ring = build_ring(parse_ring_expr(expr))
        xs = rng.sample(range(ring.order), 64)
        for kind in ("unit", "cayley"):
            rows = build_graph(ring, kind).rows
            assert [rows[x] for x in xs] == _scalar_rows(ring, kind, xs), (expr, kind)


def test_positional_graphs_never_call_add_many(monkeypatch):
    def refuse(*args):
        raise AssertionError("add_many reached")

    ring = build_ring(parse_ring_expr("M2(GF(7))"))
    ring.unit_set  # the determinant adds through the base kernels
    quot = quotient_by_radical(build_ring(parse_ring_expr("GA(GF(3), C7)")))
    quot.unit_set  # the block map adds through the field kernels
    build_graph.cache_clear()
    monkeypatch.setattr(rings.Ring, "add_many", refuse)
    for r, n in ((ring, 2401), (quot, 2187)):
        for kind in ("unit", "cayley"):
            assert build_graph(r, kind).n == n


def test_both_kinds_share_one_translates(monkeypatch):
    calls = []
    translates = rings.Ring.translates

    def counting(self, mask):
        calls.append(self)
        return translates(self, mask)

    monkeypatch.setattr(rings.Ring, "translates", counting)
    rings._build_ring_cached.cache_clear()
    build_graph.cache_clear()
    # 2 is not a unit of M2(Z2), so no unit row drops a bit
    ring = build_ring(parse_ring_expr("Z3 x M2(Z2)"))
    unit, cayley = build_graph(ring, "unit"), build_graph(ring, "cayley")
    assert calls == [ring]
    # the unit rows are the Cayley rows at -x, the same int objects
    assert all(unit.rows[ring.neg(x)] is cayley.rows[x] for x in range(ring.order))


def test_binary_unit_rows_are_the_cayley_rows():
    # every digit binary: -x = x and 1 + 1 = 0, so the unit graph takes
    # the Cayley rows themselves
    for expr in ("Z2 x Z2 x Z2", "M2(Z2)", "GA(GF(2), C4)", "GF(256)"):
        ring = build_ring(parse_ring_expr(expr))
        unit, cayley = build_graph(ring, "unit"), build_graph(ring, "cayley")
        assert unit.rows == cayley.rows, expr
        assert all(u is c for u, c in zip(unit.rows, cayley.rows)), expr


CHAR_TWO_RINGS = ("GF(8)", "Z2 x Z2 x Z2", "M2(GF(2))", "GA(GF(2), C3)")


def _counting_scans(monkeypatch):
    """The kinds of the graphs whose rows Graph.__init__ scans, in order."""
    scans = []
    init = Graph.__init__

    def counting(self, n, kind, rows, *args, **kwargs):
        scans.append(kind)
        init(self, n, kind, rows, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting)
    return scans


@pytest.mark.parametrize("first", ["unit", "cayley"])
def test_characteristic_two_unit_graph_shares_the_checked_cayley_rows(first, monkeypatch):
    for expr in CHAR_TWO_RINGS:
        ring = build_ring(parse_ring_expr(expr))
        want = {kind: _scalar_rows(ring, kind, range(ring.order)) for kind in KINDS}
        build_graph.cache_clear()
        scans = _counting_scans(monkeypatch)
        second = "cayley" if first == "unit" else "unit"
        graphs = {first: build_graph(ring, first), second: build_graph(ring, second)}
        monkeypatch.undo()
        assert graphs["unit"].rows is graphs["cayley"].rows, expr
        assert scans == ["cayley"], expr  # one row scan per ring
        for kind, g in graphs.items():
            assert g.kind == kind and g.n == ring.order and g.ring_expr == ring.expr
            assert g.candidates == ring.place_translations, (expr, kind)
            assert list(g.rows) == want[kind], (expr, kind)
            # the export of each kind is that of a graph made from its own rows
            fresh = Graph(ring.order, kind, want[kind], ring.expr, ring.place_translations)
            assert graph_to_json(g) == graph_to_json(fresh), (expr, kind)
            assert graph_to_dot(g) == graph_to_dot(fresh), (expr, kind)
            assert json.loads(graph_to_json(g))["kind"] == kind


def test_odd_characteristic_unit_rows_are_built_and_scanned_on_their_own(monkeypatch):
    for expr in ("Z9", "M2(GF(3))"):
        ring = build_ring(parse_ring_expr(expr))
        build_graph.cache_clear()
        scans = _counting_scans(monkeypatch)
        unit, cayley = build_graph(ring, "unit"), build_graph(ring, "cayley")
        monkeypatch.undo()
        assert scans == ["unit", "cayley"], expr
        assert unit.rows is not cayley.rows, expr
        assert list(unit.rows) == _scalar_rows(ring, "unit", range(ring.order)), expr


@pytest.mark.parametrize("first", ["unit", "cayley"])
def test_a_planted_loop_is_caught_whichever_kind_is_built_first(first, monkeypatch):
    def planted(self):
        rows = self.translates(self.unit_set.mask)
        rows[0] |= 1  # row 0 of either kind is T[0] = T[-0]; 0 is no unit
        return rows

    monkeypatch.setattr(rings.Ring, "unit_translates", property(planted))
    for expr in (*CHAR_TWO_RINGS, "Z9", "M2(GF(3))"):
        ring = build_ring(parse_ring_expr(expr))
        build_graph.cache_clear()
        with pytest.raises(GraphError, match="loop at vertex 0"):
            build_graph(ring, first)


def test_graph_export_matches_the_edge_list(catalog_descriptors):
    # the writers format row by row; the text is that of the whole edge list
    graphs = [Graph(3, "imported", [0, 0, 0])] + [
        build_graph(build_ring(descriptor), kind)
        for _, descriptor in catalog_descriptors
        for kind in ("unit", "cayley")
    ]
    for g in graphs:
        edges = g.edges()
        payload = {"n": g.n, "kind": g.kind, "edges": edges}
        assert graph_to_json(g) == json.dumps(payload), g
        lines = ["graph G {", *(f"  {v};" for v in range(g.n))]
        lines += [f"  {a} -- {b};" for a, b in edges] + ["}"]
        assert graph_to_dot(g) == "\n".join(lines) + "\n", g


def test_cayley_graph_is_unit_regular(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        g = build_graph(ring, "cayley")
        u = len(ring.unit_set)
        assert all(g.degree(x) == u for x in range(g.n)), expr


def test_unit_graph_degree_formula(catalog_descriptors):
    # degree is |U| - 1 when 2x is a unit (x + x = 2x discards one), else |U|
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        g = build_graph(ring, "unit")
        u = len(ring.unit_set)
        for x in range(g.n):
            expected = u - 1 if ring.is_unit(ring.add(x, x)) else u
            assert g.degree(x) == expected, (expr, x)


def test_graphs_equal_examples():
    z8 = build_ring(Zn(8))
    assert graphs_equal(build_graph(z8, "cayley"), build_graph(z8, "unit"))
    z3 = build_ring(Zn(3))
    assert not graphs_equal(build_graph(z3, "cayley"), build_graph(z3, "unit"))
    g = build_graph(build_ring(Zn(4)))
    assert graphs_equal(g, g)
    with pytest.raises(GraphError):
        graphs_equal(build_graph(z3), build_graph(z8))


def test_exports_refuse_what_is_not_a_graph():
    for export in (graph_to_dot, graph_to_json):
        for value in ("x", None, [[1], [0]]):
            with pytest.raises(GraphError, match="is not a Graph"):
                export(value)


def test_unit_equals_cayley_iff_quotient_char_two(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        quot = quotient_by_radical(ring)
        same = graphs_equal(build_graph(ring, "unit"), build_graph(ring, "cayley"))
        assert same == (quot.characteristic == 2), expr


def test_adjacency_descends_to_quotient_when_two_is_nonunit(catalog_descriptors):
    # for 2 a zero divisor: x ~ y in the unit graph iff their images are
    # adjacent in the quotient's unit graph (equal images force non-adjacency)
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.is_unit(ring.add(ring.one, ring.one)) or ring.order > 300:
            continue
        quot = quotient_by_radical(ring)
        g = build_graph(ring, "unit")
        gq = build_graph(quot, "unit")
        for x in range(ring.order):
            xq = quot.project(x)
            for y in range(x + 1, ring.order):
                yq = quot.project(y)
                adj = bool((g.rows[x] >> y) & 1)
                if xq == yq:
                    assert not adj, expr
                else:
                    assert adj == bool((gq.rows[xq] >> yq) & 1), expr


def test_dot_export_k2():
    dot = graph_to_dot(build_graph(build_ring(Zn(2))))
    edge_lines = [line for line in dot.splitlines() if "--" in line]
    assert edge_lines == ["  0 -- 1;"]


def test_json_export_z4():
    payload = json.loads(graph_to_json(build_graph(build_ring(Zn(4)))))
    assert payload == {
        "n": 4,
        "kind": "unit",
        "edges": [[0, 1], [0, 3], [1, 2], [2, 3]],
    }



@pytest.mark.parametrize("n, rows, message", [
    (2, [2], "row count does not match vertex count"),
    (2, [1, 0], "loop at vertex 0"),
    (2, [2, 4], "row 1 has bits outside the vertex range"),
    (2, [2.0, 1.0], "row 0 is not an int"),
    (2, [2, "1"], "row 1 is not an int"),
    (2, [2, None], "row 1 is not an int"),
    (2.0, [2, 1], "vertex count must be an int"),
    (True, [0], "vertex count must be an int"),
    ("2", [2, 1], "vertex count must be an int"),
])
def test_graph_refuses_malformed_rows_and_vertex_counts(n, rows, message):
    with pytest.raises(GraphError, match=message):
        Graph(n, "imported", rows)

def test_json_export_edgeless():
    g = Graph(3, "imported", [0, 0, 0])
    assert json.loads(graph_to_json(g)) == {"n": 3, "kind": "imported", "edges": []}


def test_json_round_trip(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 100:
            continue
        g = build_graph(ring, "unit")
        payload, rows = rows_from_json(graph_to_json(g))
        assert payload["n"] == g.n and rows == g.rows, expr


@pytest.mark.parametrize("expr", ["Z1024", " x ".join(["Z2"] * 10), "M2(GF(4)) x Z4"])
def test_json_round_trip_at_1024_vertices(expr):
    # dense, sparse, and a product: each row is written edge by edge, so
    # each must come back bit for bit
    g = build_graph(build_ring(parse_ring_expr(expr)))
    assert g.n == 1024
    payload, rows = rows_from_json(graph_to_json(g))
    assert payload["n"] == g.n and rows == g.rows and payload["kind"] == g.kind


def test_graph_cap():
    ring = build_ring(Zn(DEFAULT_GRAPH_CAP + 1), order_cap=HARD_ORDER_CAP)
    for kind in ("unit", "cayley"):
        with pytest.raises(GraphError, match=f"exceeds the graph cap {DEFAULT_GRAPH_CAP}"):
            build_graph(ring, kind)


def test_quotient_rings_build_graphs():
    quot = quotient_by_radical(build_ring(Mat(2, Zn(4))))
    g = build_graph(quot, "unit")
    m22 = build_graph(build_ring(Mat(2, Gf(2))))
    # the quotient of M2(Z4) is M2(GF(2)) up to the canonical re-indexing,
    # and here the canonical encodings line up exactly
    assert graphs_equal(g, m22)

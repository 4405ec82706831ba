import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_mis_subsets
from unitgraphs.classify import cross_validate
from unitgraphs.descriptors import Zn
from unitgraphs.dsl import parse_ring_expr
from unitgraphs.graphs import Graph, build_graph, connected_components, induced_subgraph
from unitgraphs.indsets import (
    EnumerationError,
    enumerate_mis,
    is_independent,
    is_maximal_independent,
    well_covered_bruteforce,
)
from unitgraphs.rings import VertexSet, build_ring, mask_indices, quotient_by_radical


def _graph(expr):
    return build_graph(build_ring(parse_ring_expr(expr)))


def _edgeless(n):
    return Graph(n, "imported", [0] * n)


def test_is_independent_examples():
    g3 = _graph("Z3")
    assert is_independent(g3, VertexSet.from_indices([1, 2], 3))
    g9 = _graph("Z9")
    assert not is_independent(g9, VertexSet.from_indices([1, 2, 4, 5, 7, 8], 9))
    assert is_independent(g3, VertexSet(0, 3))


def test_is_maximal_independent_examples():
    g3 = _graph("Z3")
    assert is_maximal_independent(g3, VertexSet.from_indices([1, 2], 3))
    assert is_maximal_independent(g3, VertexSet.from_indices([0], 3))
    g4 = _graph("Z4")
    assert not is_maximal_independent(g4, VertexSet.from_indices([0], 4))


def test_enumerate_examples():
    report = enumerate_mis(_graph("Z4"))
    assert [s.indices() for s in report.sets] == [[0, 2], [1, 3]]
    assert report.well_covered and not report.truncated
    assert report.stop_reason == "exhausted"

    report = enumerate_mis(_graph("Z3"))
    assert [s.indices() for s in report.sets] == [[0], [1, 2]]
    assert not report.well_covered
    assert report.independence_number == 2
    sizes = sorted(len(w) for w in report.witnesses)
    assert sizes == [1, 2]

    report = enumerate_mis(_edgeless(5))
    assert report.count == 1 and report.sets[0].indices() == [0, 1, 2, 3, 4]


def test_empty_graph_has_the_empty_set_as_its_one_mis():
    report = enumerate_mis(_edgeless(0))
    assert report.count == 1 and dict(report.sizes_seen) == {0: 1}
    assert [s.indices() for s in report.sets] == [[]]
    assert report.well_covered is True
    assert well_covered_bruteforce(_edgeless(0)) is True


def test_truncated_enumeration_leaves_well_coveredness_open():
    # Z3 has maximal independent sets of sizes 1 and 2
    report = enumerate_mis(_graph("Z3"), max_sets=1)
    assert report.truncated and report.stop_reason == "max_sets"
    assert report.well_covered is None
    report = enumerate_mis(_graph("Z3"), max_sets=2)
    assert report.truncated and report.well_covered is False


def test_enumeration_matches_subset_oracle(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 16:
            continue
        g = build_graph(ring)
        report = enumerate_mis(g)
        assert {s.mask for s in report.sets} == all_mis_subsets(g), expr
        assert report.count == len(all_mis_subsets(g)), expr


def test_enumeration_matches_subset_oracle_on_quotients(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        quot = quotient_by_radical(ring)
        if quot.order > 16:
            continue
        g = build_graph(quot)
        assert {s.mask for s in enumerate_mis(g).sets} == all_mis_subsets(g), expr


def test_every_vertex_in_some_mis(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 100:
            continue
        covered = 0
        for s in enumerate_mis(build_graph(ring)).sets:
            covered |= s.mask
        assert covered == (1 << ring.order) - 1, expr


def test_emitted_sets_are_maximal_independent(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 100:
            continue
        g = build_graph(ring)
        for s in enumerate_mis(g).sets:
            assert is_maximal_independent(g, s), expr


def test_callback_sees_every_set():
    seen = []
    report = enumerate_mis(_graph("Z4"), on_set=seen.append)
    assert sorted(s.mask for s in seen) == sorted(s.mask for s in report.sets)


def test_first_two_sizes_stops_early():
    report = enumerate_mis(_graph("M2(GF(3))"), stop_mode="first_two_sizes")
    assert report.stop_reason == "two_sizes"
    assert len(report.sizes_seen) == 2
    assert not report.truncated  # an answer, not a cap


def test_max_sets_truncation_is_flagged():
    g = _edgeless(3)
    # K3-complement has 3 maximal cliques; one-set cap must report truncation
    g3 = build_graph(build_ring(Zn(3)), "cayley")
    report = enumerate_mis(g3, max_sets=1)
    assert report.truncated and report.stop_reason == "max_sets"
    assert well_covered_bruteforce(g3, max_sets=1) is None
    assert enumerate_mis(g).count == 1  # edgeless is still fine


def test_well_covered_examples():
    assert well_covered_bruteforce(_graph("M2(GF(2))")) is True
    assert well_covered_bruteforce(_graph("M2(GF(3))")) is False
    assert well_covered_bruteforce(_graph("Z2 x Z3")) is False


def test_mis_of_unit_graph_are_coset_unions_when_two_nonunit():
    # rings where 2 is a zero divisor: the maximal independent sets are
    # exactly the unions of radical cosets over the quotient's maximal
    # independent sets (checked as an explicit bijection)
    for expr in ("Z4", "Z8", "M2(Z4)", "GA(GF(2), C4)"):
        ring = build_ring(parse_ring_expr(expr))
        two = ring.add(ring.one, ring.one)
        assert not ring.is_unit(two), expr
        quot = quotient_by_radical(ring)
        rad = quot.radical.indices()
        lifted = set()
        for qset in enumerate_mis(build_graph(quot)).sets:
            mask = 0
            for a in qset:
                for j in rad:
                    mask |= 1 << ring.add(quot.representatives[a], j)
            lifted.add(mask)
        actual = {s.mask for s in enumerate_mis(build_graph(ring)).sets}
        assert lifted == actual, expr
        # hence well-coveredness transfers between the ring and its quotient
        assert well_covered_bruteforce(build_graph(ring)) == (
            well_covered_bruteforce(build_graph(quot))
        ), expr


def test_coset_union_correspondence_fails_when_two_is_a_unit():
    # Z9: {1, 2} is maximal independent mod 3, but its full preimage
    # {1,2,4,5,7,8} is not even independent
    ring = build_ring(Zn(9))
    assert ring.is_unit(ring.add(ring.one, ring.one))
    g = build_graph(ring)
    preimage = VertexSet.from_indices([1, 2, 4, 5, 7, 8], 9)
    assert not is_independent(g, preimage)


def test_enumeration_cap_guard():
    with pytest.raises(EnumerationError):
        enumerate_mis(_edgeless(10), cap=5)
    with pytest.raises(EnumerationError):
        enumerate_mis(_edgeless(3), stop_mode="nope")


# ---------------------------------------------------------------------------
# the false-twin quotient and the component split, on planted structure
# ---------------------------------------------------------------------------


@st.composite
def planted_graphs(draw):
    """A disjoint union of 1-3 random base graphs whose vertices are blown
    up into classes of false twins, relabelled by a random permutation;
    at most 14 vertices, so the subset oracle stays cheap."""
    pieces = []
    total = 0
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 4))
        edges = [(a, b) for a in range(k) for b in range(a + 1, k) if draw(st.booleans())]
        sizes = [draw(st.integers(1, 3)) for _ in range(k)]
        if total + sum(sizes) > 14:
            break
        pieces.append((edges, sizes, total))
        total += sum(sizes)
    perm = draw(st.permutations(range(total)))
    rows = [0] * total
    for edges, sizes, offset in pieces:
        members, v = [], offset
        for size in sizes:
            members.append([perm[v + i] for i in range(size)])
            v += size
        for a, b in edges:
            for x in members[a]:
                for y in members[b]:
                    rows[x] |= 1 << y
                    rows[y] |= 1 << x
    return Graph(total, "imported", rows)


@settings(max_examples=80, deadline=None)
@given(planted_graphs())
def test_enumeration_on_planted_twins_and_components(g):
    want = all_mis_subsets(g)
    report = enumerate_mis(g)
    assert [s.mask for s in report.sets] == sorted(want, key=mask_indices)
    assert report.count == len(want)
    assert report.sizes_seen == Counter(m.bit_count() for m in want)
    assert well_covered_bruteforce(g) is (len(report.sizes_seen) == 1)
    # a capped run still emits true maximal independent sets, one per count
    if len(want) > 1:
        capped = enumerate_mis(g, max_sets=len(want) - 1)
        assert capped.truncated and capped.count == len(want) - 1
        assert {s.mask for s in capped.sets} <= want
    # the components partition the vertices, and their induced subgraphs
    # keep exactly the edges inside them
    parts = connected_components(g)
    assert sum(parts) == (1 << g.n) - 1
    for part in parts:
        sub = induced_subgraph(g, part)
        keep = mask_indices(part)
        for i, x in enumerate(keep):
            assert mask_indices(sub.rows[i]) == [
                j for j, y in enumerate(keep) if (g.rows[x] >> y) & 1
            ]


@pytest.mark.parametrize("expr", ["Z1024", "M2(Z4)", "Z8 x Z8", "Z2 x Z2 x Z2 x Z2 x Z2"])
def test_mis_size_counts_match_networkx(expr):
    nx = pytest.importorskip("networkx")
    g = _graph(expr)
    full = (1 << g.n) - 1
    comp = nx.Graph()
    comp.add_nodes_from(range(g.n))
    for x, row in enumerate(g.rows):
        later = (full ^ row) >> (x + 1) << (x + 1)
        comp.add_edges_from((x, y) for y in mask_indices(later))
    want = Counter(len(c) for c in nx.find_cliques(comp))
    assert enumerate_mis(g, collect=False).sizes_seen == want


@pytest.mark.parametrize("expr", ["Z4096", "M2(Z8)", " x ".join(["Z2"] * 12)])
def test_well_covered_bruteforce_decides_large_structured_graphs(expr):
    g = _graph(expr)
    start = time.perf_counter()
    assert well_covered_bruteforce(g) is True
    assert time.perf_counter() - start < 1.0


def test_cross_validate_decides_z2_to_the_sixth():
    report = cross_validate(parse_ring_expr(" x ".join(["Z2"] * 6)), ("wc",))
    assert report.observed == {"well_covered": True}
    assert report.agreement is True

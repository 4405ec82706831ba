import itertools
import random
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOG_EXPRS
from oracles import all_mis_subsets
from unitgraphs import complexes, indsets
from unitgraphs.bits import VertexSet, mask_indices
from unitgraphs.classify import cross_validate
from unitgraphs.complexes import SimplicialComplex, join_factors, join_verdicts
from unitgraphs.descriptors import Zn
from unitgraphs.dsl import parse_ring_expr
from unitgraphs.graphs import (
    DEFAULT_GRAPH_CAP,
    Graph,
    build_graph,
    connected_components,
    induced_subgraph,
)
from unitgraphs.indsets import (
    EnumerationError,
    component_reports,
    enumerate_mis,
    is_independent,
    is_maximal_independent,
    verified_automorphisms,
    well_covered_bruteforce,
)
from unitgraphs.rings import build_ring, quotient_by_radical


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
        enumerate_mis(_edgeless(DEFAULT_GRAPH_CAP + 1))
    with pytest.raises(EnumerationError):
        enumerate_mis(_edgeless(3), stop_mode="nope")


def test_enumeration_refuses_an_empty_cap_and_a_nan_budget():
    # max_sets=0 once gave a truncated report of one set, past its cap; a
    # NaN budget makes every deadline comparison false
    g = _graph("M2(GF(2))")
    for limits in ({"max_sets": 0}, {"max_sets": -3}, {"time_budget": float("nan")}):
        calls = [
            lambda: enumerate_mis(g, collect=False, **limits),
            lambda: enumerate_mis(g, stop_mode="first_two_sizes", **limits),
            lambda: list(component_reports(g, **limits)),
            lambda: well_covered_bruteforce(g, **limits),
            lambda: cross_validate(parse_ring_expr("M2(GF(2))"), ("wc", "cm"), **limits),
        ]
        for call in calls:
            with pytest.raises(EnumerationError, match="bad limits: max_sets="):
                call()
    # a negative budget is a deadline already past: component_reports
    # passes what is left of its deadline, which goes negative
    report = enumerate_mis(g, time_budget=-1.0, collect=False)
    assert report.truncated and report.stop_reason == "time_budget"


def test_enumeration_refuses_a_cap_that_is_not_an_int():
    # on K3 a cap of 1.5 once came back as the count (sizes_seen {1: 1.5}),
    # 2.5 broke itertools.islice, and True and NumPy integers passed
    k3 = Graph(3, "imported", [6, 5, 3])
    for cap in (1.5, 2.5, True, np.int64(2)):
        for collect in (False, True):
            with pytest.raises(EnumerationError, match="bad limits: max_sets="):
                enumerate_mis(k3, max_sets=cap, collect=collect)
    assert enumerate_mis(k3, max_sets=2).count == 2


def test_enumeration_refuses_a_budget_that_is_not_a_number():
    # on K3 "5" and None once raised TypeError from math.isnan or from
    # time.monotonic() + time_budget, and True ran as a 1 s budget
    k3 = Graph(3, "imported", [6, 5, 3])
    for budget in ("5", None, True, float("nan")):
        calls = [
            lambda: enumerate_mis(k3, time_budget=budget),
            lambda: well_covered_bruteforce(k3, time_budget=budget),
            lambda: list(component_reports(k3, time_budget=budget)),
        ]
        for call in calls:
            with pytest.raises(EnumerationError, match="bad limits: max_sets="):
                call()
    assert enumerate_mis(k3, time_budget=5).count == 3


def test_independence_tests_take_only_vertex_sets():
    k3 = Graph(3, "imported", [6, 5, 3])
    for s in ([0, 2], {0}, 1, None):
        for test in (is_independent, is_maximal_independent):
            with pytest.raises(EnumerationError, match="expected a VertexSet"):
                test(k3, s)
    assert is_maximal_independent(k3, VertexSet(0b100, 3))


# ---------------------------------------------------------------------------
# the false-twin quotient and the component split, on planted structure
# ---------------------------------------------------------------------------


@st.composite
def planted_graphs(draw, limit=14):
    """A disjoint union of 1-3 random base graphs whose vertices are blown
    up into classes of false twins (independent sets) or of true twins
    (cliques), and 0-2 isolated vertices, relabelled by a random
    permutation; at most limit vertices, so that the subset oracle stays
    cheap at the default."""
    pieces = []
    total = draw(st.integers(0, 2))  # the isolated vertices come first
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 4))
        edges = [(a, b) for a in range(k) for b in range(a + 1, k) if draw(st.booleans())]
        sizes = [draw(st.integers(1, 3)) for _ in range(k)]
        cliques = [draw(st.booleans()) for _ in range(k)]
        if total + sum(sizes) > limit:
            break
        pieces.append((edges, sizes, cliques, total))
        total += sum(sizes)
    perm = draw(st.permutations(range(total)))
    rows = [0] * total

    def join(xs, ys):
        for x in xs:
            for y in ys:
                if x != y:
                    rows[x] |= 1 << y
                    rows[y] |= 1 << x

    for edges, sizes, cliques, offset in pieces:
        members, v = [], offset
        for size, clique in zip(sizes, cliques):
            members.append([perm[v + i] for i in range(size)])
            v += size
            if clique:
                join(members[-1], members[-1])
        for a, b in edges:
            join(members[a], members[b])
    return Graph(total, "imported", rows)


@st.composite
def blown_up_graphs(draw):
    """A random graph on 1-5 base vertices, each blown up into a class of
    false twins (an independent set) or of true twins (a clique) of 1 to
    300 vertices, relabelled by a random permutation; classes above 128
    members take the NumPy path of the mask they are given."""
    k = draw(st.integers(1, 5))
    edges = [(a, b) for a in range(k) for b in range(a + 1, k) if draw(st.booleans())]
    sizes = [draw(st.sampled_from([1, 2, 3, 40, 129, 300])) for _ in range(k)]
    cliques = [draw(st.booleans()) for _ in range(k)]
    total = sum(sizes)
    perm = draw(st.permutations(range(total)))
    members, v = [], 0
    for size in sizes:
        members.append(perm[v : v + size])
        v += size
    rows = [0] * total
    for a in range(k):
        for b in range(k):
            if (a, b) in edges or (b, a) in edges or (a == b and cliques[a]):
                mask = sum(1 << y for y in members[b])
                for x in members[a]:
                    rows[x] |= mask & ~(1 << x)
    return Graph(total, "imported", rows)


def _grouped_twin_classes(keys, vertices):
    """twin_classes by grouping in a dict: the representatives' mask and
    each class of two or more by its least member's bit."""
    groups = {}
    for v in vertices:
        groups.setdefault(keys[v], []).append(v)
    reps = sum(1 << min(m) for m in groups.values())
    return reps, {1 << min(m): sum(1 << v for v in m) for m in groups.values() if len(m) > 1}


@settings(max_examples=60, deadline=None)
@given(blown_up_graphs(), st.randoms(use_true_random=False))
def test_twin_classes_match_a_grouping(g, rnd):
    full = (1 << g.n) - 1
    comp = [full ^ (row | 1 << v) for v, row in enumerate(g.rows)]
    for keys in (g.rows, comp):
        assert indsets.twin_classes(keys, full, range(g.n)) == _grouped_twin_classes(keys, range(g.n))
    # on a subgraph, keyed by the rows inside it, as a search restricts them
    within = sum(1 << v for v in range(g.n) if rnd.random() < 0.7)
    vertices = mask_indices(within)
    keys = {v: g.rows[v] & within for v in vertices}
    assert indsets.twin_classes(keys, within, vertices) == _grouped_twin_classes(keys, vertices)


def _family_masks(g, report):
    return sorted(s.mask for s in report.sets)


@settings(max_examples=120, deadline=None)
@given(planted_graphs())
def test_enumeration_on_planted_twins_and_components(g):
    want = all_mis_subsets(g)
    report = enumerate_mis(g)
    # the sets come in search order: each one once
    assert _family_masks(g, report) == sorted(want)
    assert report.count == len(want)
    assert report.sizes_seen == Counter(m.bit_count() for m in want)
    assert well_covered_bruteforce(g) is (len(report.sizes_seen) == 1)
    # counted, a disconnected graph multiplies its components' families
    counted = enumerate_mis(g, collect=False)
    assert counted.count == len(want) and counted.sizes_seen == report.sizes_seen
    assert counted.well_covered is report.well_covered
    for w in counted.witnesses:
        assert w.mask in want
    # a capped run, listed or counted, describes exactly max_sets true
    # maximal independent sets
    if len(want) > 1:
        cap = len(want) - 1
        for collect in (True, False):
            capped = enumerate_mis(g, max_sets=cap, collect=collect)
            assert capped.truncated and capped.stop_reason == "max_sets"
            assert capped.count == cap == sum(capped.sizes_seen.values()), collect
            assert all(capped.sizes_seen[k] <= report.sizes_seen[k] for k in capped.sizes_seen)
            if collect:
                assert len({s.mask for s in capped.sets}) == cap
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


@settings(max_examples=120, deadline=None)
@given(planted_graphs())
def test_probe_decided_planted_graphs_count_their_greedy_sets_once(g):
    # the least allowance, so that the probe runs on these small graphs:
    # its greedy sets are sets of the whole graph, weighed by no twin class
    want = all_mis_subsets(g)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(indsets, "VERIFY_MIN_ROWS", 0)
        report = enumerate_mis(g, stop_mode="first_two_sizes")
    assert report.well_covered is (len({w.bit_count() for w in want}) == 1)
    assert {s.mask for s in report.sets} <= want
    assert report.count == len(report.sets) == len({s.mask for s in report.sets})
    assert report.sizes_seen == Counter(len(s) for s in report.sets)
    if report.well_covered is False:
        a, b = report.witnesses
        assert len(a) != len(b) and {a.mask, b.mask} <= want


def _networkx_sizes(nx, g):
    """The sizes of the maximal independent sets of g, as networkx finds
    the maximal cliques of its complement."""
    full = (1 << g.n) - 1
    comp = nx.Graph()
    comp.add_nodes_from(range(g.n))
    for x, row in enumerate(g.rows):
        later = (full ^ row) >> (x + 1) << (x + 1)
        comp.add_edges_from((x, y) for y in mask_indices(later))
    return Counter(len(c) for c in nx.find_cliques(comp))


@settings(max_examples=40, deadline=None)
@given(planted_graphs(limit=40))
def test_planted_twins_and_components_match_networkx(g):
    nx = pytest.importorskip("networkx")
    want = _networkx_sizes(nx, g)
    for collect in (False, True):
        report = enumerate_mis(g, collect=collect)
        assert report.sizes_seen == want and report.count == sum(want.values())


@st.composite
def repeated_unions(draw, limit=24):
    """A disjoint union of copies of 1-3 random base graphs.  A copy keeps
    its base's labelling, so that its relabelled rows equal the base's,
    or permutes it, isomorphic and mostly not equal.  The copies'
    vertices are interleaved, each copy keeping its own order."""
    copies = []  # (vertex count, edges) per copy
    total = 0
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 5))
        edges = [(a, b) for a in range(k) for b in range(a + 1, k) if draw(st.booleans())]
        for _ in range(draw(st.integers(1, 4))):
            if total + k > limit:
                break
            perm = draw(st.permutations(range(k))) if draw(st.booleans()) else range(k)
            copies.append((k, [(perm[a], perm[b]) for a, b in edges]))
            total += k
    owners = draw(st.permutations([i for i, (k, _) in enumerate(copies) for _ in range(k)]))
    places = [[] for _ in copies]
    for v, i in enumerate(owners):
        places[i].append(v)
    rows = [0] * total
    for (_, edges), place in zip(copies, places):
        for a, b in edges:
            rows[place[a]] |= 1 << place[b]
            rows[place[b]] |= 1 << place[a]
    return Graph(total, "imported", rows)


VERDICT_KEYS = ["well_covered", "cm_gf2", "shellable", "gorenstein_gf2"]


@settings(max_examples=60, deadline=None)
@given(repeated_unions())
def test_repeated_components_reuse_their_search(g):
    nx = pytest.importorskip("networkx")
    parts = connected_components(g)
    subs = [induced_subgraph(g, part) for part in parts]
    # every component searched on its own, as if none repeated: the walk
    # yields the same parts, subgraphs and reports, which hold no sets, up
    # to the first of two sizes, whether it finds the parts or is given them
    for stop_mode in ("first_two_sizes", "all"):
        fresh = [enumerate_mis(sub, stop_mode=stop_mode, collect=False) for sub in subs]
        walked = list(component_reports(g, stop_mode=stop_mode))
        given = list(component_reports(g, parts, stop_mode=stop_mode))
        ends = [i for i, r in enumerate(fresh) if r.stop_reason == "two_sizes"]
        assert len(walked) == (ends[0] + 1 if ends else len(subs))
        assert [part for part, _ in walked] == parts[: len(walked)]
        assert [c.graph.rows for _, c in walked] == [sub.rows for sub in subs[: len(walked)]]
        assert [c.report for _, c in walked] == fresh[: len(walked)]
        assert [(part, c.graph.rows, c.report) for part, c in given] == [
            (part, c.graph.rows, c.report) for part, c in walked
        ]
        # a repeated component yields the first one's object, and only a
        # repeat does
        for (_, c), (_, d) in itertools.combinations(walked, 2):
            assert (c is d) == (c.graph.rows == d.graph.rows)
    want = _networkx_sizes(nx, g)
    assert well_covered_bruteforce(g) is (len(want) == 1)
    counted = enumerate_mis(g, collect=False)
    assert counted.sizes_seen == want and counted.count == sum(want.values())
    # the join's verdicts on one complex per component, without reuse; a
    # component of two sizes is the last, and its complex is not pure
    factors = []
    for sub in subs:
        report = enumerate_mis(sub, stop_mode="first_two_sizes")
        factors.append(SimplicialComplex(sub.n, [s.mask for s in report.sets]))
        if report.stop_reason == "two_sizes":
            break
    joined = list(join_factors(g))
    verdicts = join_verdicts(joined, VERDICT_KEYS)
    assert verdicts == join_verdicts(factors, VERDICT_KEYS)
    assert verdicts["well_covered"] is (len(want) == 1)
    # the join's factors are the walk's Components, the same object for a
    # repeated component and only for a repeat
    assert len(joined) == len(factors)
    for (c, sub), (d, other) in itertools.combinations(zip(joined, subs), 2):
        assert c.graph.rows == sub.rows and d.graph.rows == other.rows
        assert (c is d) == (sub.rows == other.rows)


def test_random_cayley_graphs_match_networkx():
    # Cayley graphs of Z2^k: a connection set that spans no more than a
    # subgroup splits the graph into its cosets, and x, x + s are true
    # twins whenever s is in the connection set and adding s fixes it
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    split = twinned = 0
    for _ in range(40):
        k = rng.randint(2, 6)
        n = 1 << k
        connection = {s for s in range(1, n) if rng.random() < rng.choice((0.1, 0.3, 0.6, 0.9))}
        g = _cayley_z2(k, connection)
        split += len(connected_components(g)) > 1
        twinned += any(g.rows[x] | 1 << x == g.rows[y] | 1 << y
                       for x in range(n) for y in mask_indices(g.rows[x]))
        want = _networkx_sizes(nx, g)
        for collect in (False, True):
            report = enumerate_mis(g, collect=collect)
            assert report.sizes_seen == want and report.count == sum(want.values())
    assert split >= 5 and twinned >= 5


def test_a_complete_graph_is_one_true_twin_class():
    # K_4096, the unit graph of GF(4096): the search runs on one vertex
    g = _graph("GF(4096)")
    report = enumerate_mis(g, stop_mode="first_two_sizes", collect=False)
    assert report.nodes <= 2 and report.count == 4096 and report.well_covered is True
    assert report.sizes_seen == Counter({1: 4096})
    listed = enumerate_mis(_graph("GF(16)"))
    assert listed.nodes <= 2
    assert sorted(s.mask for s in listed.sets) == [1 << v for v in range(16)]


@pytest.mark.parametrize("expr", [" x ".join(["Z2"] * 12), "Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z3 x Z3"])
def test_counts_of_disconnected_graphs_stop_at_max_sets_by_the_product(expr):
    # 2048 components of 2 vertices, and 128 of 18: the product passes
    # 10^6 sets after a few components, and no set is enumerated
    g = _graph(expr)
    report = enumerate_mis(g, collect=False)
    assert report.count == indsets.DEFAULT_MAX_SETS and report.stop_reason == "max_sets"
    assert report.truncated and sum(report.sizes_seen.values()) == report.count
    assert report.nodes < 1000
    # every size described is the size of a maximal independent set: a
    # sum of one size per component
    reachable = {0}
    for _, c in component_reports(g):
        reachable = {a + b for a in reachable for b in c.report.sizes_seen}
    assert set(report.sizes_seen) <= reachable


def _union_graph(n, edges):
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(n, "imported", rows)


def test_a_truncated_product_still_decides_false_on_a_split_component():
    # P3 + K3: the path has sets of sizes 1 and 2, and max_sets = 3 keeps
    # the three sets of size 2 only; the path's two sizes still decide
    g = _union_graph(6, [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5)])
    report = enumerate_mis(g, collect=False, max_sets=3)
    assert report.truncated and report.stop_reason == "max_sets"
    assert report.count == 3 and report.sizes_seen == Counter({2: 3})
    assert report.well_covered is False
    # {1} and {0, 2}, each completed by the greedy set's vertex 3
    assert sorted(w.mask for w in report.witnesses) == [0b1010, 0b1101]


def test_a_count_folds_one_search_per_distinct_component(monkeypatch):
    # every component search goes through the module's enumerate_mis, on
    # the component alone; a count verifies no candidate of the whole graph
    searches, verified = [], []
    real, real_verify = indsets.enumerate_mis, indsets.verified_automorphisms
    monkeypatch.setattr(indsets, "enumerate_mis", lambda g, **kw: searches.append(g.n) or real(g, **kw))
    monkeypatch.setattr(
        indsets, "verified_automorphisms", lambda g: verified.append(g.n) or real_verify(g)
    )
    cycles = [(c + i, c + (i + 1) % 10) for c in (0, 10, 20) for i in range(10)]
    cases = [
        # two equal components of 18 vertices
        (_graph("Z2 x Z2 x Z3 x Z3"), {}, 1936, "exhausted", 18),
        # four equal components of 18: the product passes max_sets
        (_graph("Z2 x Z2 x Z2 x Z3 x Z3"), {"max_sets": 3 * 10**4}, 3 * 10**4, "max_sets", 18),
        # three 10-cycles, 17 sets each
        (_union_graph(30, cycles), {}, 17**3, "exhausted", 10),
        # two equal components of 98 vertices, 996 sets each
        (_graph("Z2 x Z2 x Z7 x Z7"), {}, 996**2, "exhausted", 98),
    ]
    for g, limits, count, reason, part in cases:
        searches.clear()
        verified.clear()
        report = real(g, collect=False, **limits)
        assert searches == [part] and g.n not in verified
        assert report.count == count and report.stop_reason == reason
        assert report.orbits is None
    assert report.sizes_seen == Counter(
        {8: 777924, 18: 197568, 28: 12544, 53: 3528, 63: 448, 98: 4}
    )
    nx = pytest.importorskip("networkx")
    sub = induced_subgraph(g, connected_components(g)[0])
    one = _networkx_sizes(nx, sub)
    assert sum(one.values()) == 996
    product = Counter()
    for (a, i), (b, j) in itertools.product(one.items(), repeat=2):
        product[a + b] += i * j
    assert report.sizes_seen == product


def test_forced_representatives_end_the_search_at_once():
    # Z2^12: 2048 components of K2, each a true-twin class with no other
    # neighbour, so every representative is forced; the plain search took
    # 2074 nodes, one per representative, to reach the first set
    g = _graph(" x ".join(["Z2"] * 12))
    report = enumerate_mis(g, max_sets=1000)
    assert report.nodes <= 2 and report.stop_reason == "max_sets"
    assert len({s.mask for s in report.sets}) == report.count == 1000
    # a sample: each check walks the set's 2048 members one by one
    assert all(is_maximal_independent(g, s) for s in report.sets[::111])


# these take the orbit path with 3, 5 and 5 orbits; on the second, the
# union W of the root orbits holds 20 of the 36 vertices
SEVERAL_ORBITS = ["M2(GF(2)) x Z3", "Z2 x Z2 x Z3 x Z3", "M2(GF(2)) x Z5"]


@pytest.mark.parametrize(
    "expr", ["Z1024", "M2(Z4)", "Z8 x Z8", "Z2 x Z2 x Z2 x Z2 x Z2"] + SEVERAL_ORBITS
)
def test_mis_size_counts_match_networkx(expr):
    nx = pytest.importorskip("networkx")
    g = _graph(expr)
    want = _networkx_sizes(nx, g)
    report = enumerate_mis(g, collect=False)
    assert report.sizes_seen == want and report.count == sum(want.values())
    if expr in SEVERAL_ORBITS:
        # counted, the disconnected Z2 x Z2 x Z3 x Z3 is folded from its
        # components' searches, which have no candidates; listed, every
        # one takes the orbit path
        if len(connected_components(g)) == 1:
            assert report.orbits > 1
        listed = enumerate_mis(g)
        assert listed.orbits > 1 and listed.sizes_seen == want


@pytest.mark.parametrize("expr", ["Z4096", "M2(Z8)", " x ".join(["Z2"] * 12)])
def test_well_covered_bruteforce_decides_large_structured_graphs(expr):
    g = _graph(expr)
    start = time.perf_counter()
    assert well_covered_bruteforce(g) is True
    assert time.perf_counter() - start < 1.0


def test_z2_to_the_twelfth_searches_and_judges_one_component(monkeypatch):
    # 2048 equal components of two vertices: one search; one component,
    # which each check judges once
    searches, checks = [], Counter()
    real, verdict = indsets.enumerate_mis, complexes._verdict
    monkeypatch.setattr(indsets, "enumerate_mis", lambda g, **kw: searches.append(g.n) or real(g, **kw))
    monkeypatch.setattr(
        complexes, "_verdict", lambda key, *a: checks.update([key]) or verdict(key, *a)
    )
    expr = " x ".join(["Z2"] * 12)
    assert well_covered_bruteforce(_graph(expr)) is True
    assert searches == [2]
    searches.clear()
    report = cross_validate(parse_ring_expr(expr), ("wc", "cm", "shellable", "gorenstein"))
    assert report.agreement is True and set(report.observed.values()) == {True}
    assert searches == [2]
    assert checks == {"well_covered": 1, "cm_gf2": 1, "shellable": 1, "gorenstein_gf2": 1}


def test_cross_validate_decides_z2_to_the_sixth():
    report = cross_validate(parse_ring_expr(" x ".join(["Z2"] * 6)), ("wc",))
    assert report.observed == {"well_covered": True}
    assert report.agreement is True


# ---------------------------------------------------------------------------
# the orbit path: verified translations, one root per orbit, closure
# ---------------------------------------------------------------------------

def _plain(g):
    """g without its candidate automorphisms, so every search is plain."""
    return Graph(g.n, g.kind, g.rows, g.ring_expr)


def _cayley_z2(k, connection, extra=()):
    """The Cayley graph of Z2^k (x ~ y iff x XOR y is in connection), with
    the translations by the unit vectors as candidates, plus extra."""
    n = 1 << k
    rows = [sum(1 << (x ^ s) for s in connection) for x in range(n)]
    shifts = [
        (1 << j, sum(1 << x for x in range(n) if x >> j & 1), 1 << j) for j in range(k)
    ]
    return Graph(n, "cayley", rows, candidates=shifts + list(extra))


def _assert_orbit_path_agrees(g):
    """The first-two-sizes search of g and of g without candidates give the
    same verdict; a well-covered graph gives the same family (the closure
    against the plain enumeration), and every False report two maximal
    independent sets of different sizes.  The whole-family search, counted
    or collected, gives the plain enumeration's count, sizes and family.
    True if the orbit path fired."""
    whole = enumerate_mis(_plain(g))
    for collect in (False, True):
        report = enumerate_mis(g, collect=collect)
        assert report.count == whole.count and report.sizes_seen == whole.sizes_seen
        if collect:
            assert sorted(s.mask for s in report.sets) == sorted(s.mask for s in whole.sets)
    orbit = enumerate_mis(g, stop_mode="first_two_sizes")
    plain = enumerate_mis(_plain(g), stop_mode="first_two_sizes")
    assert plain.orbits is None
    assert orbit.well_covered is plain.well_covered is not None
    if orbit.well_covered:
        assert sorted(s.mask for s in orbit.sets) == sorted(s.mask for s in plain.sets)
        assert orbit.count == plain.count and orbit.sizes_seen == plain.sizes_seen
    else:
        for report in (orbit, plain):
            a, b = report.witnesses
            assert len(a) != len(b)
            assert is_maximal_independent(g, a) and is_maximal_independent(g, b)
    assert well_covered_bruteforce(g) is orbit.well_covered
    return orbit.orbits is not None


ORACLE_RINGS = ["M2(GF(4))", "GF(8) x GF(8)", "Z8 x Z8", "GA(GF(3), C4)", "GA(GF(2), C6)"]


def test_orbit_path_agrees_on_catalog_rings(monkeypatch):
    # one row read per candidate and vertex, so that small graphs take the
    # orbit path too; the probe is off, so that False graphs reach it
    monkeypatch.setattr(indsets, "VERIFY_MIN_ROWS", 0)
    monkeypatch.setattr(indsets, "PROBE_ORDERS", 0)
    # complete graphs end in two nodes, on their one true-twin class, so
    # they no longer reach the orbit path; the SEVERAL_ORBITS rings do
    fired = false = 0
    for expr in CATALOG_EXPRS + ORACLE_RINGS + SEVERAL_ORBITS:
        ring = build_ring(parse_ring_expr(expr))
        assert ring.order <= 256
        for kind in ("unit", "cayley"):
            g = build_graph(ring, kind)
            if _assert_orbit_path_agrees(g):
                fired += 1
                false += well_covered_bruteforce(g) is False
    assert fired >= 20 and false >= 3


def test_orbit_path_agrees_on_random_cayley_graphs(monkeypatch):
    monkeypatch.setattr(indsets, "VERIFY_MIN_ROWS", 0)
    rng = random.Random(13)
    fired = 0
    for _ in range(60):
        k = rng.randint(2, 6)
        n = 1 << k
        connection = {s for s in range(1, n) if rng.random() < rng.choice((0.2, 0.5, 0.8))}
        # sometimes a rotation x -> x + 1 mod n, a permutation that is
        # rarely an automorphism, rides along
        extra = [(1, 1 << (n - 1), n - 1)] if rng.random() < 0.5 else []
        fired += _assert_orbit_path_agrees(_cayley_z2(k, connection, extra))
    assert fired >= 20
    # and a graph whose true twins straddle W, the union of the root
    # orbits: the whole-family tallies then count members outside W
    outside = []
    tally = indsets._Search.tally

    def spy(search, size, mask, classes):
        outside.append(any(c & ~search.orbit_union for c in classes))
        return tally(search, size, mask, classes)

    monkeypatch.setattr(indsets._Search, "tally", spy)
    _assert_orbit_path_agrees(_twins_outside_the_roots())
    assert any(outside)


def _twins_outside_the_roots():
    """12 vertices (a, b) = a + 3b, a in Z3, b in 0..3; (a, b1) ~ (a + d, b2)
    for each (b1, b2, d) below, with the rotation a -> a + 1 as the one
    candidate.  Its whole-family search has 3 orbits and sizes {3: 6, 4: 9}."""
    edges = [(0, 0, 1), (0, 0, 2), (0, 2, 1), (0, 2, 2), (1, 2, 0), (1, 3, 0), (1, 3, 1),
             (2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (3, 3, 1), (3, 3, 2)]
    rows = [0] * 12
    for a in range(3):
        for b1, b2, d in edges:
            x, y = a + 3 * b1, (a + d) % 3 + 3 * b2
            rows[x] |= 1 << y
            rows[y] |= 1 << x
    g = Graph(12, "imported", rows, candidates=[(1, 0b100100100100, 2)])
    report = enumerate_mis(g, collect=False)
    assert report.orbits == 3 and report.sizes_seen == {3: 6, 4: 9}
    return g


@pytest.mark.parametrize("expr", ["M2(GF(4))", "GF(8) x GF(8)", "GA(GF(2), Q8)"])
def test_closure_is_the_whole_family(expr):
    g = _graph(expr)
    closed = enumerate_mis(g, stop_mode="first_two_sizes")
    full = enumerate_mis(_plain(g))
    assert sorted(s.mask for s in closed.sets) == sorted(s.mask for s in full.sets)
    assert closed.sizes_seen == full.sizes_seen and closed.count == full.count
    if expr == "M2(GF(4))":
        # 8 verified translations, one orbit: the 160 facets come from the
        # 10 sets {0} + T with T maximal independent in G - N[0], and so
        # does their count, 256 * 10 / 16
        assert len(verified_automorphisms(g)) == 8
        assert closed.orbits == 1 and closed.count == 160
        seeds = enumerate_mis(g, stop_mode="first_two_sizes", collect=False)
        assert seeds.orbits == 1 and seeds.count == 160
        assert seeds.nodes < full.nodes / 10


def test_a_candidate_that_is_no_automorphism_is_rejected():
    # odd characteristic: 2a is a unit for every generator a, so no
    # translation maps the unit graph onto itself (build_graph drops them
    # all; here they are put back, to be rejected on the rows)
    ring = build_ring(parse_ring_expr("M2(GF(3))"))
    built = build_graph(ring)
    assert built.candidates == ()
    g = Graph(built.n, "unit", built.rows, candidates=ring.place_translations)
    assert len(g.candidates) == 4 and verified_automorphisms(g) == ()
    report = enumerate_mis(g, stop_mode="first_two_sizes")
    assert report.orbits is None and report.well_covered is False
    # the path 0 - 1 - 2 - 3: rotations by 1 and 2 are permutations but no
    # automorphisms, and shifting every vertex up is no permutation
    path = Graph(4, "imported", [0b10, 0b101, 0b1010, 0b100],
                 candidates=[(1, 0b1000, 3), (2, 0b1100, 2), (1, 0, 0), (-1, 0, 0)])
    assert verified_automorphisms(path) == ()
    report = enumerate_mis(path, stop_mode="first_two_sizes")
    assert report.orbits is None and report.well_covered is True and report.count == 3
    # on the 4-cycle the rotation by 1 is kept and the bogus shift is not
    cycle = Graph(4, "imported", [0b1010, 0b101, 0b1010, 0b101],
                  candidates=[(1, 0, 0), (1, 0b1000, 3)])
    assert verified_automorphisms(cycle) == ((1, 0b1000, 3),)


HINT_RINGS = [
    *CATALOG_EXPRS,
    "Z4096", "Z9 x M2(Z4)", "M2(GF(7))", "M2(GF(5))", "GA(GF(3), C7)",
    "Z5 x Z4", "M2(Z3) x Z4", "Z2 x Z2 x Z7 x Z7", "M2(Z2) x Z9", "Z6 x Z9",
]


@pytest.mark.parametrize("expr", HINT_RINGS)
def test_unit_graph_candidates_are_its_verified_translations(expr):
    # build_graph keeps a translation by a on the unit graph iff 2a + U = U;
    # the rows reject every translation it drops and keep every one it keeps
    ring = build_ring(parse_ring_expr(expr))
    built = build_graph(ring, "unit")
    every = Graph(built.n, "unit", built.rows, candidates=ring.place_translations)
    assert verified_automorphisms(every) == built.candidates
    assert build_graph(ring, "cayley").candidates == ring.place_translations


def test_verification_waits_for_the_allowance(monkeypatch):
    calls = []
    real = indsets.verified_automorphisms
    monkeypatch.setattr(indsets, "verified_automorphisms", lambda g: calls.append(g.n) or real(g))
    # K_4096 is one true-twin class, a whole component: its representative
    # is forced, and the search reads no row
    report = enumerate_mis(_graph("GF(4096)"), stop_mode="first_two_sizes", collect=False)
    assert calls == [] and report.orbits is None and report.well_covered is True
    assert report.nodes == 1
    # M2(GF(7)): at the allowance the probe finds two sizes, and nothing
    # is verified
    g = _graph("M2(GF(7))")
    report = enumerate_mis(g, stop_mode="first_two_sizes", collect=False)
    assert calls == [] and report.stop_reason == "two_sizes" and report.probes == 3
    assert report.orbits is None and report.nodes < 200
    # with the probe off, past the allowance the 4 candidates fail and the
    # plain search carries on to the same witnesses
    monkeypatch.setattr(indsets, "PROBE_ORDERS", 0)
    report = enumerate_mis(g, stop_mode="first_two_sizes", collect=False)
    assert calls == [2401] and report.orbits is None and report.probes is None
    plain = enumerate_mis(_plain(g), stop_mode="first_two_sizes", collect=False)
    assert [w.mask for w in report.witnesses] == [w.mask for w in plain.witnesses]
    assert report.nodes == plain.nodes


def test_m2_gf8_is_decided_through_its_orbits():
    g = _graph("M2(GF(8))")
    start = time.monotonic()
    report = enumerate_mis(g, stop_mode="first_two_sizes", collect=False)
    assert time.monotonic() - start < 5
    # the probe saw one size and fell through to the orbit path
    assert report.probes == indsets.PROBE_ORDERS
    assert report.orbits == 1 and report.well_covered is True
    # 18 sets {0} + T, each of 64 members, weigh 4096 / 64 each
    assert report.sizes_seen == Counter({64: 1152})


# ---------------------------------------------------------------------------
# the probe: greedy maximal independent sets before the exact search
# ---------------------------------------------------------------------------

def _random_graph(rng, n, density):
    rows = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return Graph(n, "imported", rows)


def _assert_probe_witnesses(g, report):
    a, b = report.witnesses
    assert len(a) != len(b)
    assert is_maximal_independent(g, a) and is_maximal_independent(g, b)
    assert report.count == len({s.mask for s in report.sets})
    assert all(is_maximal_independent(g, s) for s in report.sets)
    assert report.sizes_seen == Counter(len(s) for s in report.sets)


def test_probe_agrees_with_the_plain_search_on_random_graphs(monkeypatch):
    # the least allowance (n row reads), so that the probe runs on small
    # graphs; the reference is the same search with the probe off
    monkeypatch.setattr(indsets, "VERIFY_MIN_ROWS", 0)
    rng = random.Random(2024)
    ran = decided = 0
    for _ in range(150):
        g = _random_graph(rng, rng.randint(6, 40), rng.choice((0.1, 0.3, 0.5, 0.8)))
        report = enumerate_mis(g, stop_mode="first_two_sizes")
        with monkeypatch.context() as m:
            m.setattr(indsets, "PROBE_ORDERS", 0)
            plain = enumerate_mis(g, stop_mode="first_two_sizes")
        assert plain.probes is None
        assert report.well_covered is plain.well_covered is not None
        if report.probes is None:
            continue
        ran += 1
        greedy = indsets._greedy_sets(g, indsets.PROBE_ORDERS)
        assert report.probes == len(greedy)
        if greedy[0].bit_count() != greedy[-1].bit_count():
            decided += 1
            assert report.stop_reason == "two_sizes" and report.nodes <= plain.nodes
            _assert_probe_witnesses(g, report)
        else:  # one size: the same search as with the probe off
            assert report.nodes == plain.nodes and report.witnesses == plain.witnesses
    # most graphs are decided by the probe; some fall through
    assert ran >= 120 and decided >= 100 and ran - decided >= 3


def test_probe_is_deterministic():
    # the orders come from a local generator: the global random state
    # does not move them
    g = _random_graph(random.Random(7), 60, 0.3)
    state = random.getstate()
    try:
        random.seed(1)
        sets = indsets._greedy_sets(g, indsets.PROBE_ORDERS)
        random.seed(2)
        assert sets == indsets._greedy_sets(g, indsets.PROBE_ORDERS)
    finally:
        random.setstate(state)
    assert all(is_maximal_independent(g, VertexSet(m, g.n)) for m in sets)
    # one size until the last set, which alone has another
    assert len({m.bit_count() for m in sets[:-1]}) == 1


@pytest.mark.parametrize("expr", [
    "M2(GF(2)) x M2(GF(2)) x M2(GF(2))",
    "GF(32) x M2(GF(2)) x GA(GF(2), C3)",
    "M2(GF(4)) x M2(GF(2))",
])
def test_probe_decides_false_rings_at_the_cap(expr):
    # each took the exact search 995-2032 nodes and over a second on the
    # orbit path; the probe stops it at the allowance, about 15 nodes in
    g = _graph(expr)
    assert g.n == 4096
    report = enumerate_mis(g, stop_mode="first_two_sizes")
    assert report.well_covered is False and report.stop_reason == "two_sizes"
    assert report.orbits is None and report.probes is not None
    assert report.nodes < 100
    _assert_probe_witnesses(g, report)
    assert well_covered_bruteforce(g) is False

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOG_EXPRS
from oracles import all_mis_subsets
from unitgraphs import indsets
from unitgraphs.classify import cross_validate
from unitgraphs.descriptors import Zn
from unitgraphs.dsl import parse_ring_expr
from unitgraphs.graphs import Graph, build_graph, connected_components, induced_subgraph
from unitgraphs.indsets import (
    EnumerationError,
    enumerate_mis,
    is_independent,
    is_maximal_independent,
    verified_automorphisms,
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
    # the sets come in search order: each one once
    assert sorted(s.mask for s in report.sets) == sorted(want)
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
    independent sets of different sizes.  True if the orbit path fired."""
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
    fired = false = 0
    for expr in CATALOG_EXPRS + ORACLE_RINGS:
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


@pytest.mark.parametrize("expr", ["M2(GF(4))", "GF(8) x GF(8)", "GA(GF(2), Q8)"])
def test_closure_is_the_whole_family(expr):
    g = _graph(expr)
    closed = enumerate_mis(g, stop_mode="first_two_sizes")
    full = enumerate_mis(g)
    assert sorted(s.mask for s in closed.sets) == sorted(s.mask for s in full.sets)
    assert closed.sizes_seen == full.sizes_seen and closed.count == full.count
    if expr == "M2(GF(4))":
        # 8 verified translations, one orbit: the 160 facets come from the
        # 10 sets {0} + T with T maximal independent in G - N[0]
        assert len(verified_automorphisms(g)) == 8
        assert closed.orbits == 1 and closed.count == 160
        seeds = enumerate_mis(g, stop_mode="first_two_sizes", collect=False)
        assert seeds.orbits == 1 and seeds.count == 10
        assert seeds.nodes < full.nodes / 10


def test_a_candidate_that_is_no_automorphism_is_rejected():
    # odd characteristic: 2a is a unit for every generator a, so no
    # translation maps the unit graph onto itself
    g = _graph("M2(GF(3))")
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


def test_verification_waits_for_the_allowance(monkeypatch):
    calls = []
    real = indsets.verified_automorphisms
    monkeypatch.setattr(indsets, "verified_automorphisms", lambda g: calls.append(g.n) or real(g))
    # K_4096: 8192 row reads, under the allowance of 12 candidates x 4096
    report = enumerate_mis(_graph("GF(4096)"), stop_mode="first_two_sizes", collect=False)
    assert calls == [] and report.orbits is None and report.well_covered is True
    assert report.nodes == 4097
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
    assert report.sizes_seen == Counter({64: 18})


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

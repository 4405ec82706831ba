import time

import pytest

from conftest import CATALOG_EXPRS
from oracles import build_plain_graph
from unitgraphs import classify, cli, complexes, indsets, rings
from unitgraphs.classify import (
    CHECK_KEYS,
    SKIPPED,
    classify_cm,
    classify_well_covered,
    cross_validate,
)
from unitgraphs.complexes import SimplicialComplex
from unitgraphs.descriptors import (
    CapExceeded,
    Cn,
    Gf,
    GroupAlgebra,
    Product,
    Q8,
    Zn,
    semisimple_blocks,
)
from unitgraphs.dsl import parse_ring_expr
from unitgraphs.graphs import build_graph, connected_components
from unitgraphs.indsets import well_covered_bruteforce
from unitgraphs.rings import build_ring, quotient_by_radical


def test_classify_well_covered_examples():
    assert classify_well_covered(Zn(8)) is True
    assert classify_well_covered(Zn(6)) is False
    assert classify_well_covered(Product((Gf(4), Gf(4)))) is True
    assert classify_well_covered(Product((Gf(4), Gf(2)))) is False
    assert classify_well_covered(GroupAlgebra(2, Q8())) is True
    # GF(2)[C3] / J = GF(2) x GF(4): two distinct fields
    assert classify_well_covered(GroupAlgebra(2, Cn(3))) is False
    # shape alone, without realizing the 6561-element algebra
    assert classify_well_covered(GroupAlgebra(3, Q8())) is False
    # 2 has order 82 modulo 83: GF(2)[C83]/J = GF(2) x GF(2^82)
    assert semisimple_blocks(GroupAlgebra(2, Cn(83))) == ((1, 2), (1, 2**82))
    assert classify_well_covered(GroupAlgebra(2, Cn(83))) is False
    # the 2-part of n adds no cosets: GF(2)[C_{2^40}] is local
    assert classify_well_covered(GroupAlgebra(2, Cn(1 << 40))) is True
    # the odd part 5^12 of 10^12 is refused before any coset is listed
    with pytest.raises(CapExceeded):
        classify_well_covered(GroupAlgebra(2, Cn(10**12)))


def test_classify_well_covered_shape_patterns():
    assert classify_well_covered(parse_ring_expr("M2(GF(4))")) is True
    assert classify_well_covered(parse_ring_expr("M2(GF(3))")) is False
    assert classify_well_covered(parse_ring_expr("M3(GF(2))")) is False
    assert classify_well_covered(parse_ring_expr("Z2 x Z2 x Z2 x Z2 x Z2")) is True
    assert classify_well_covered(parse_ring_expr("GF(8) x GF(8)")) is True
    assert classify_well_covered(parse_ring_expr("GF(8) x GF(8) x GF(8)")) is False
    assert classify_well_covered(parse_ring_expr("Z4 x Z4")) is True  # quotient Z2 x Z2


def test_classify_cm_examples():
    assert classify_cm(Gf(4)) == {"cm": True, "shellable": True, "gorenstein": False}
    assert classify_cm(Product((Zn(2), Zn(2), Zn(2)))) == {
        "cm": True,
        "shellable": True,
        "gorenstein": True,
    }
    assert classify_cm(parse_ring_expr("M2(GF(2))")) == {
        "cm": False,
        "shellable": False,
        "gorenstein": False,
    }
    assert classify_cm(Zn(2)) == {"cm": True, "shellable": True, "gorenstein": True}
    assert classify_cm(Gf(3)) == {"cm": False, "shellable": False, "gorenstein": False}


def test_predicted_invariants_hold(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        wc = classify_well_covered(descriptor)
        cm = classify_cm(descriptor)
        assert cm["cm"] == cm["shellable"], expr
        if cm["gorenstein"]:
            assert cm["cm"], expr
        ring = build_ring(descriptor)
        quot = quotient_by_radical(ring)
        if quot.characteristic != 2:
            assert wc is False, expr
        if cm["cm"]:
            assert wc is True, expr  # CM graphs are well-covered


def test_classifier_matches_bruteforce_across_catalog(catalog_descriptors):
    for expr, descriptor in catalog_descriptors:
        predicted = classify_well_covered(descriptor)
        assert predicted is not None, expr
        observed = well_covered_bruteforce(build_graph(build_ring(descriptor)))
        assert predicted == observed, expr


def test_classifier_matches_bruteforce_on_boundary_shapes():
    # shapes just outside / inside each pattern of the classification
    cases = {
        "Z4 x M2(GF(2))": False,  # field block + matrix block
        "Z2 x M2(Z4)": False,
        "M2(GF(2)) x M2(GF(2))": False,  # two matrix blocks
        "Z2 x GF(4)": False,  # distinct characteristic-2 fields
        "GF(8) x GF(8)": True,  # two copies of one field
        "Z8 x Z8": True,  # quotient is Z2 x Z2
        "M3(GF(2))": False,  # 3x3 matrices are out
        "Z2 x Z4": True,
        "GA(GF(2), C2) x Z2": True,
    }
    for expr, expected in cases.items():
        descriptor = parse_ring_expr(expr)
        assert classify_well_covered(descriptor) is expected, expr
        observed = well_covered_bruteforce(build_graph(build_ring(descriptor)))
        assert observed is expected, expr


def test_cross_validate_examples():
    report = cross_validate(Zn(4), ("wc",))
    assert report.predicted["well_covered"] is True
    assert report.observed["well_covered"] is True
    assert report.agreement is True

    report = cross_validate(Zn(3), ("wc",))
    assert report.predicted["well_covered"] is False
    assert report.observed["well_covered"] is False
    assert report.agreement is True


def test_cross_validate_group_algebra_q8():
    report = cross_validate(GroupAlgebra(2, Q8()), ("wc",))
    assert report.predicted["well_covered"] is True
    assert report.observed["well_covered"] is True
    assert report.agreement is True
    assert report.quotient_char == 2
    assert report.shape == ((1, 2),)


def test_cross_validate_cm_trio():
    report = cross_validate(Zn(4), ("wc", "cm", "shellable", "gorenstein"))
    assert report.predicted["cm"] is False
    assert report.observed["cm_gf2"] is False
    assert report.observed["shellable"] is False
    assert report.observed["gorenstein_gf2"] is False
    assert report.agreement is True

    report = cross_validate(Gf(4), ("cm", "shellable", "gorenstein"))
    assert report.observed["cm_gf2"] is True
    assert report.observed["shellable"] is True
    assert report.observed["gorenstein_gf2"] is False
    assert report.agreement is True


def test_cross_validate_marks_skips_not_disagreements():
    # M2(GF(2)) has 24 facets; the default shellability cap (12) skips it
    report = cross_validate(parse_ring_expr("M2(GF(2))"), ("shellable",))
    assert report.observed["shellable"] == SKIPPED
    assert report.agreement is None
    report = cross_validate(parse_ring_expr("M2(GF(2))"), ("shellable",), facet_cap=30)
    assert report.observed["shellable"] is False
    assert report.agreement is True


def test_cross_validate_refuses_a_ring_over_the_order_cap():
    # the order cap fires in build_ring before the equal graph cap could,
    # so no verdict is ever skipped for the graph's size
    with pytest.raises(CapExceeded, match="cap 4096"):
        cross_validate(parse_ring_expr("M2(Z9)"), ("wc", "cm"))


ALL_CHECKS = ("wc", "cm", "shellable", "gorenstein")


def test_cross_validate_spends_one_budget(monkeypatch):
    # M2(GF(8)) without its candidate automorphisms: 4096 vertices, one
    # component whose plain search outlasts 2 s (with them it is decided
    # in well under a second, and no ring within the cap was found whose
    # orbit-reduced search still outlasts 2 s)
    monkeypatch.setattr(classify, "build_graph", build_plain_graph)
    start = time.monotonic()
    report = cross_validate(parse_ring_expr("M2(GF(8))"), ALL_CHECKS, time_budget=2)
    assert time.monotonic() - start < 3
    assert set(report.observed.values()) == {SKIPPED}
    assert report.agreement is None


@pytest.mark.parametrize("expr", ["M2(Z4)", "M2(GF(4))", "M2(Z8)"])
def test_cross_validate_decides_every_check_past_the_face_cap(expr):
    # well-covered, with complexes over the face cap (M2(Z8) has 4096
    # vertices); the vertex-link recursion decides CM, and with it the rest
    start = time.monotonic()
    report = cross_validate(parse_ring_expr(expr), ALL_CHECKS)
    assert time.monotonic() - start < 10
    assert report.observed == {
        "well_covered": True, "cm_gf2": False, "shellable": False, "gorenstein_gf2": False,
    }
    assert report.agreement is True


def test_cross_validate_decides_m2_gf8():
    # the search runs on one vertex neighbourhood, the closure under the
    # translations gives the 1152 facets, and the link recursion says not CM
    start = time.monotonic()
    report = cross_validate(parse_ring_expr("M2(GF(8))"), ALL_CHECKS)
    assert time.monotonic() - start < 10
    assert report.observed == {
        "well_covered": True, "cm_gf2": False, "shellable": False, "gorenstein_gf2": False,
    }
    assert report.agreement is True


@pytest.mark.parametrize("expr", ["M2(GF(5))", "M2(GF(7))"])
def test_cross_validate_stops_each_search_at_its_second_size(monkeypatch, expr):
    runs = []
    real = indsets.enumerate_mis

    def recording(g, **limits):
        report = real(g, **limits)
        runs.append((limits["stop_mode"], report))
        return report

    monkeypatch.setattr(indsets, "enumerate_mis", recording)
    start = time.monotonic()
    report = cross_validate(parse_ring_expr(expr), ALL_CHECKS)
    assert time.monotonic() - start < 2
    assert report.observed == {
        "well_covered": False, "cm_gf2": False, "shellable": False, "gorenstein_gf2": False,
    }
    assert report.agreement is True
    graph = build_graph(build_ring(parse_ring_expr(expr)))
    assert 1 <= len(runs) <= len(connected_components(graph))
    assert all(mode == "first_two_sizes" for mode, _ in runs)
    assert all(r.stop_reason == "exhausted" for _, r in runs[:-1])
    # the last search emitted one size until the set that ended it
    last = runs[-1][1]
    assert last.stop_reason == "two_sizes" and len(last.sizes_seen) == 2
    assert last.sizes_seen[len(last.witnesses[1])] == 1


WC_ONLY_RINGS = [*CATALOG_EXPRS, "GF(4096)", "M2(GF(7))", "M2(GF(8))", "Z2 x Z2 x Z3 x Z3"]


# every verdict on these is read off the components' subgraphs and reports
NO_LISTING_RINGS = [*CATALOG_EXPRS, "GF(4096)", "M2(GF(8))", "Z2 x Z2 x Z3 x Z3"]


def test_wc_only_cross_validation_builds_no_complex(monkeypatch, capsys):
    # nor does any other verdict, or the complex command: no complex is
    # built and no family of maximal independent sets is listed
    built, listed = [], []
    real_init, real_enumerate = SimplicialComplex.__init__, indsets.enumerate_mis

    def counting(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def spying(g, **kwargs):
        if kwargs.get("collect", True):
            listed.append(g.n)
        return real_enumerate(g, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting)
    monkeypatch.setattr(indsets, "enumerate_mis", spying)
    monkeypatch.setattr(complexes, "enumerate_mis", spying)
    # M2(GF(2)) has 24 maximal independent sets: max_sets 5 truncates it
    cases = [(expr, {}) for expr in WC_ONLY_RINGS] + [("M2(GF(2))", {"max_sets": 5})]
    seen = set()
    for expr, limits in cases:
        descriptor = parse_ring_expr(expr)
        observed = cross_validate(descriptor, ("wc",), **limits).observed["well_covered"]
        want = well_covered_bruteforce(build_graph(build_ring(descriptor)), **limits)
        assert observed == (SKIPPED if want is None else want), expr
        seen.add(observed)
    assert seen == {True, False, SKIPPED}
    # the complex verdicts neither build a complex nor list a family:
    # no component of these is pure, CM and of dimension 1 or more, the
    # one kind whose shellability search lists its facets
    for expr in NO_LISTING_RINGS:
        report = cross_validate(parse_ring_expr(expr), ALL_CHECKS)
        assert report.agreement is True and SKIPPED not in report.observed.values(), expr
        assert cli.main(["complex", expr, "--pure", "--cm", "--gorenstein"]) == 0, expr
    capsys.readouterr()
    assert built == [] and listed == []


def test_cm_false_decides_gorenstein_and_shellable():
    # GF(8) x GF(8): 16 facets, over the 12-facet shelling cap, and not CM
    report = cross_validate(parse_ring_expr("GF(8) x GF(8)"), ALL_CHECKS)
    assert report.observed == {
        "well_covered": True, "cm_gf2": False, "shellable": False, "gorenstein_gf2": False,
    }
    assert report.agreement is True
    # without the CM check, shellability is left to its capped search
    report = cross_validate(parse_ring_expr("GF(8) x GF(8)"), ("shellable",))
    assert report.observed == {"shellable": SKIPPED}


def test_report_serializes():
    report = cross_validate(Zn(4), ("wc",))
    data = report.to_dict()
    assert data["ring"] == "Z4"
    assert data["predicted"]["well_covered"] is True
    assert data["shape"] == [[1, 2]]
    assert isinstance(data["runtime_ms"], int)


def test_classify_cm_matches_complex_oracles_small(catalog_descriptors, monkeypatch):
    from unitgraphs import complexes
    from unitgraphs.complexes import (
        independence_complex,
        is_cm_gf2,
        is_gorenstein_gf2,
        is_shellable,
    )

    def refuse(*args):
        raise AssertionError("the graph recursion judged a facet complex")

    # the facet judges walk the faces: independent of the graph recursion
    # that cross_validate runs
    monkeypatch.setattr(complexes, "ind_reisner", refuse)
    monkeypatch.setattr(complexes, "_graph_reisner", refuse)
    decided = 0
    for expr, descriptor in catalog_descriptors:
        ring = build_ring(descriptor)
        if ring.order > 16:
            continue
        predicted = classify_cm(descriptor)
        c = independence_complex(build_graph(ring))
        assert is_cm_gf2(c) == predicted["cm"], expr
        assert is_gorenstein_gf2(c) == predicted["gorenstein"], expr
        shell = is_shellable(c, facet_cap=300)
        assert shell == predicted["shellable"], expr
        decided += 1
    assert decided == 33


def test_cross_validate_realizes_no_quotient(catalog_descriptors, monkeypatch):
    # the report reads R/J(R) off the shape: with the quotient and the
    # radical unbuildable, every report is the same
    def reports():
        out = []
        for _, descriptor in catalog_descriptors:
            report = cross_validate(descriptor, ALL_CHECKS).to_dict()
            report.pop("runtime_ms")
            out.append(report)
        return out

    def refuse(*args):
        raise AssertionError("R/J(R) or J(R) realized")

    want = reports()
    quotient_by_radical.cache_clear()
    monkeypatch.setattr(rings.QuotientRing, "__init__", refuse)
    monkeypatch.setattr(rings, "_radical_structural", refuse)
    assert reports() == want

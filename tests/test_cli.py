import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitgraphs
from oracles import build_plain_graph, rows_from_json
from unitgraphs import classify, cli, complexes, indsets
from unitgraphs.bits import VertexSet
from unitgraphs.descriptors import CACHE_SIZE, descriptor_order
from unitgraphs.dsl import parse_ring_expr
from unitgraphs.graphs import build_graph
from unitgraphs.rings import build_ring
from unitgraphs.cli import (
    EXIT_CAP,
    EXIT_DISAGREEMENT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def test_info(capsys):
    payload = run_json(capsys, "info", "Z4 x M2(GF(2))")
    assert payload["ring"] == "Z4 x M2(GF(2))"
    result = payload["result"]
    assert result["order"] == 64
    assert result["units"] == 2 * 6
    assert result["radical_size"] == 2
    assert result["quotient_char"] == 2
    assert result["shape"] == [[1, 2], [2, 2]]
    assert set(payload) == {"ring", "command", "result", "truncated", "runtime_ms"}


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "info", "GF(6)")
    assert code == EXIT_USAGE
    assert "prime power" in err


def test_cap_exit_code(capsys):
    for expr in ("Z70000", "M3000(Z2)"):
        code, out, err = run(capsys, "info", expr)
        assert code == EXIT_CAP, expr
        assert "Traceback" not in err


def test_huge_modulus_ends_quickly(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "info", "GF(1000000016000000063)")
    assert time.monotonic() - start < 2.0
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_CAP)
    assert "Traceback" not in err


# FILE_* arguments are replaced by files written in the test
BAD_INPUTS = {
    "y-too-large": ["construct", "Z4", "complement", "--y", "99"],
    "y-negative": ["construct", "Z4", "complement", "--y", "-1"],
    "unknown-check": ["classify", "Z4", "--cross-validate", "--checks", "foo"],
    "catalog-not-json": ["verify", "--catalog", "FILE_NOT_JSON"],
    "catalog-entry-without-ring": ["verify", "--catalog", "FILE_NO_RING"],
    "catalog-expectation-not-bool": ["verify", "--catalog", "FILE_NOT_BOOL"],
    "facets-not-json": ["complex", "--facets-file", "FILE_NOT_JSON"],
    "5000-digit-modulus": ["info", "Z" + "9" * 5000],
    "superscript-digit": ["info", "Z\u00b2"],
    "two-not-a-unit": ["construct", "GA(GF(2), C3)", "two-size"],
    "max-sets-zero": ["mis", "Z3", "--max-sets", "0"],
    "max-sets-negative": ["mis", "Z3", "--max-sets", "-1"],
    "max-sets-zero-wellcovered": ["wellcovered", "Z3", "--max-sets", "0"],
    "max-sets-negative-classify": ["classify", "Z3", "--cross-validate", "--max-sets", "-1"],
    "time-budget-nan": ["mis", "Z3", "--time-budget", "nan"],
    "time-budget-inf": ["wellcovered", "Z3", "--time-budget", "inf"],
    "time-budget-negative": ["classify", "Z3", "--cross-validate", "--time-budget", "-1"],
    "facet-cap-zero": ["complex", "Z4", "--cm", "--facet-cap", "0"],
    "max-sets-zero-complex": ["complex", "Z4", "--pure", "--max-sets", "0"],
    "time-budget-nan-complex": ["complex", "Z4", "--pure", "--time-budget", "nan"],
    "time-budget-negative-complex": ["complex", "Z4", "--pure", "--time-budget", "-1"],
    "facets-huge-vertex": ["complex", "--facets-file", "FILE_HUGE_VERTEX", "--cm"],
    "facets-boolean-vertex": ["complex", "--facets-file", "FILE_BOOL_VERTEX"],
    "nested-800-deep": ["info", "M1(" * 800 + "Z2" + ")" * 800],
    "generalized-kind": ["graph", "Z4", "--kind", "generalized"],
    "13-digit-cyclic-group": ["wellcovered", "GA(GF(2), C1000000000000)"],
    "13-digit-cyclic-group-classify": [
        "wellcovered", "GA(GF(2), C1000000000000)", "--method", "classify"
    ],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_inputs_exit_without_traceback(tmp_path, capsys, argv):
    files = {
        "FILE_NOT_JSON": "not json",
        "FILE_NO_RING": json.dumps([{"well_covered": True}]),
        "FILE_NOT_BOOL": json.dumps([{"ring": "Z4", "well_covered": "yes"}]),
        "FILE_HUGE_VERTEX": json.dumps([[1000000000]]),
        "FILE_BOOL_VERTEX": json.dumps([[True, False]]),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code in (EXIT_USAGE, EXIT_CAP), err
    assert "Traceback" not in err
    assert err.strip()


# ring expressions from the grammar in dsl.py, small enough to realize in
# milliseconds or to stop at a cap, with bad tokens spliced in
_NAT = st.integers(2, 20).map(str) | st.sampled_from(["0", "1", "6", "4097", "9" * 14])
_Q = st.sampled_from(["2", "3", "4", "5", "7", "8", "9", "16"]) | _NAT
_FIELD = st.builds("GF({})".format, _Q) | st.builds("Z{}".format, _NAT)
_GROUP = st.builds("C{}".format, _NAT) | st.sampled_from(["D4", "Q8", "D5", "Q"])
_ATOM = (
    st.builds("Z{}".format, _NAT)
    | st.builds("GF({})".format, _Q)
    | st.builds("GA({}, {})".format, _FIELD, _GROUP)
)
_RING = st.recursive(
    _ATOM,
    lambda inner: (
        st.builds("M{}({})".format, st.integers(0, 3), inner)
        | st.lists(inner, min_size=2, max_size=3).map(" x ".join)
        | inner.map("({})".format)
    ),
    max_leaves=4,
)
_BAD_TOKENS = st.just("") | st.sampled_from(
    ["(", ")", ",", " x ", "x", "GF(", "M", "-1", "\u00b2", "\x00", "Z2Z"]
)


COMPLEX_FUZZ_ORDER = 64


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_RING, _BAD_TOKENS, st.integers(0, 40))
def test_generated_ring_expressions_exit_cleanly(expr, bad, at):
    expr = expr[:at] + bad + expr[at:]
    budget = ["--max-sets", "100", "--time-budget", "0.05"]
    argvs = [["info", expr], ["classify", expr],
             ["wellcovered", expr, "--method", "classify"],
             ["mis", expr, "--count", *budget],
             ["wellcovered", expr, "--method", "brute", *budget]]
    # complex's CM and Gorenstein checks have no clock budget, only caps,
    # so only small rings get it
    try:
        order = descriptor_order(parse_ring_expr(expr), COMPLEX_FUZZ_ORDER)
    except ValueError:
        order = None
    if order is not None and order <= COMPLEX_FUZZ_ORDER:
        argvs.append(["complex", expr, "--pure", "--cm", "--gorenstein", "--shellable"])
    for argv in argvs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_CAP), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv


def test_unexpected_exception_exits_internal(monkeypatch, capsys):
    def broken(descriptor):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "build_ring", broken)
    code, out, err = run(capsys, "info", "Z4")
    assert code == EXIT_INTERNAL
    assert err == "internal error: ZeroDivisionError: boom\n"


def test_graph_json_and_dot(capsys):
    code, out, _ = run(capsys, "graph", "Z4", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {
        "n": 4,
        "kind": "unit",
        "edges": [[0, 1], [0, 3], [1, 2], [2, 3]],
    }
    code, out, _ = run(capsys, "graph", "Z2", "--format", "dot")
    assert code == EXIT_OK
    assert "0 -- 1;" in out


class _Chunks(io.StringIO):
    """A stdout that records the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_graph_streams_its_rows(monkeypatch, fmt):
    from unitgraphs.graphs import graph_to_dot, graph_to_json
    from unitgraphs.rings import build_ring

    out = _Chunks()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["graph", "GF(64)", "--format", fmt]) == EXIT_OK
    g = build_graph(build_ring(parse_ring_expr("GF(64)")))
    whole = graph_to_json(g) + "\n" if fmt == "json" else graph_to_dot(g)
    assert out.getvalue() == whole
    # K64: one write per row of edges, none holding the whole text
    assert len(out.sizes) > 60 and max(out.sizes) < len(whole) / 20


def test_graph_json_round_trips(capsys):
    from unitgraphs.graphs import build_graph
    from unitgraphs.rings import build_ring
    from unitgraphs.descriptors import Zn

    code, out, _ = run(capsys, "graph", "Z8", "--format", "json")
    payload, rows = rows_from_json(out)
    assert (payload["n"], rows) == (8, build_graph(build_ring(Zn(8))).rows)


def test_mis_listing(capsys):
    payload = run_json(capsys, "mis", "Z4", "--list")
    result = payload["result"]
    assert result["count"] == 2
    assert result["sets"] == [[0, 2], [1, 3]]
    assert result["well_covered"] is True

    payload = run_json(capsys, "mis", "Z3", "--count")
    assert payload["result"]["count"] == 2


def test_mis_respects_max_sets(capsys):
    payload = run_json(capsys, "mis", "GF(5)", "--kind", "cayley", "--max-sets", "1")
    assert payload["truncated"] is True
    payload = run_json(capsys, "mis", "Z3", "--max-sets", "1")
    assert payload["truncated"] is True
    assert payload["result"]["well_covered"] is None


def test_wellcovered_modes(capsys):
    payload = run_json(capsys, "wellcovered", "Z4", "--method", "both")
    assert payload["result"] == {"predicted": True, "observed": True, "agreement": True}
    payload = run_json(capsys, "wellcovered", "Z3", "--method", "classify")
    assert payload["result"] == {"predicted": False}
    # GF(2)[C83]/J = GF(2) x GF(2^82), decided without factoring 2^82
    payload = run_json(capsys, "wellcovered", "GA(GF(2), C83)", "--method", "classify")
    assert payload["result"] == {"predicted": False}
    code, out, err = run(capsys, "wellcovered", "GA(GF(2), C83)")
    assert code == EXIT_CAP, err


def test_wellcovered_decides_m2_gf8_under_the_default_budget(capsys):
    # 4096 vertices: one orbit of verified translations, so the search
    # runs on G - N[0] (567 vertices, 18 sets of size 63)
    payload = run_json(capsys, "wellcovered", "M2(GF(8))", "--method", "both")
    assert payload["result"] == {"predicted": True, "observed": True, "agreement": True}
    assert payload["truncated"] is False


def test_classify_reads_a_ring_above_the_cap_from_its_shape(capsys):
    payload = run_json(capsys, "classify", "GA(GF(2), C83)")
    assert payload["result"]["predicted"] == {
        "well_covered": False, "cm": False, "shellable": False, "gorenstein": False,
    }


def test_python_dash_m_runs_the_cli():
    src = str(Path(unitgraphs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "unitgraphs", "info", "Z4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["result"]["order"] == 4


def test_classify_predict_and_cross_validate(capsys):
    payload = run_json(capsys, "classify", "GF(4)")
    assert payload["result"]["predicted"] == {
        "well_covered": True,
        "cm": True,
        "shellable": True,
        "gorenstein": False,
    }
    payload = run_json(capsys, "classify", "Z4", "--cross-validate")
    result = payload["result"]
    assert result["agreement"] is True
    assert result["observed"]["cm_gf2"] is False


def test_classify_envelope_is_truncated_when_a_verdict_is_skipped(monkeypatch, capsys):
    # M2(GF(8)) without its candidate automorphisms: its one component's
    # plain search outlasts the budget
    monkeypatch.setattr(classify, "build_graph", build_plain_graph)
    start = time.monotonic()
    payload = run_json(capsys, "classify", "M2(GF(8))", "--cross-validate",
                       "--checks", "wc,cm", "--time-budget", "2")
    assert time.monotonic() - start < 3
    assert payload["result"]["observed"] == {"well_covered": "skipped", "cm_gf2": "skipped"}
    assert payload["truncated"] is True
    # GF(8) x GF(8): CM False decides shellability over the 12-facet cap
    payload = run_json(capsys, "classify", "GF(8) x GF(8)", "--cross-validate")
    assert payload["result"]["observed"] == {
        "well_covered": True, "cm_gf2": False, "shellable": False, "gorenstein_gf2": False,
    }
    assert payload["truncated"] is False
    assert run_json(capsys, "classify", "GF(8) x GF(8)")["truncated"] is False


def test_construct_signature_and_zerorow(capsys):
    payload = run_json(capsys, "construct", "M2(GF(3))", "signature")
    assert payload["result"]["size"] == 4
    assert payload["result"]["verified_maximal"] is True
    payload = run_json(capsys, "construct", "M2(GF(3))", "zerorow")
    assert payload["result"]["size"] == 9
    code, _, err = run(capsys, "construct", "M2(GF(2))", "signature")
    assert code == EXIT_USAGE and "characteristic" in err


@pytest.mark.parametrize("what", ["signature", "zerorow"])
@pytest.mark.parametrize("over_zp,over_gf", [("M2(Z3)", "M2(GF(3))"), ("Z3", "GF(3)")])
def test_matrix_constructions_read_prime_residues_as_fields(capsys, what, over_zp, over_gf):
    # Z3 and GF(3) index their elements alike, so the sets print alike;
    # the complement witness already took Z3 as a field
    assert (
        run_json(capsys, "construct", over_zp, what)["result"]
        == run_json(capsys, "construct", over_gf, what)["result"]
    )
    code, _, err = run(capsys, "construct", "M2(Z4)", what)
    assert code == EXIT_USAGE and "over a field" in err


@pytest.mark.parametrize("what", ["signature", "zerorow"])
@pytest.mark.parametrize(
    "expr", ["M2(Z3)", "M1(M2(GF(3)))", "M2(M1(GF(3)))", "GA(GF(5), C1)", "GF(9)"]
)
def test_matrix_sets_are_sets_of_the_input_ring(capsys, what, expr):
    # each ring is its own R/J(R), one block M_n(GF(q)), so the set printed
    # for it is maximal independent in its own unit graph
    result = run_json(capsys, "construct", expr, what)["result"]
    graph = build_graph(build_ring(parse_ring_expr(expr)), "unit")
    assert indsets.is_maximal_independent(
        graph, VertexSet.from_indices(result["set"], graph.n)
    )
    for other in ("Z6", "Z9", "M2(Z4)"):  # two blocks, or a radical
        code, _, err = run(capsys, "construct", other, what)
        assert code == EXIT_USAGE and "over a field" in err


def test_construct_two_size(capsys):
    payload = run_json(capsys, "construct", "M2(GF(3))", "two-size")
    assert sorted(payload["result"]["sizes"]) == [4, 9]
    assert payload["result"]["verified_maximal"] is True


def test_construct_two_size_in_a_cyclic_group_algebra(capsys):
    # GF(3)[C2] / J = GF(3) x GF(3), where 2 is a unit
    result = run_json(capsys, "construct", "GA(GF(3), C2)", "two-size")["result"]
    first, second = result["sets"]
    assert len(set(result["sizes"])) == 2
    assert result["sizes"] == [len(first), len(second)]
    assert result["verified_maximal"] is True


def test_construct_complement_and_alias(capsys):
    payload = run_json(capsys, "construct", "M2(GF(3))", "complement", "--y", "3")
    y, z = 3, payload["result"]["witness"]
    from unitgraphs.rings import build_ring
    from unitgraphs.descriptors import Mat, Gf

    ring = build_ring(Mat(2, Gf(3)))
    assert not ring.is_unit(z) and ring.is_unit(ring.add(y, z))
    alias = run_json(capsys, "construct", "M2(GF(3))", "claim", "--y", "3")
    assert alias["result"]["witness"] == z
    code, _, err = run(capsys, "construct", "M2(GF(3))", "complement")
    assert code == EXIT_USAGE


def test_construct_lift(capsys):
    payload = run_json(
        capsys, "construct", "Z9", "lift", "--side", "nonunit", "--quotient-set", "0"
    )
    assert payload["result"]["set"] == [0, 3, 6]
    payload = run_json(
        capsys, "construct", "Z9", "lift", "--side", "unit", "--quotient-set", "1,2"
    )
    assert payload["result"]["set"] == [1, 2]


@pytest.mark.parametrize("index", ["3", "-1"])
def test_construct_lift_rejects_an_index_outside_the_quotient(capsys, index):
    code, out, err = run(capsys, "construct", "Z9", "lift", "--quotient-set", index)
    assert code == EXIT_USAGE and out == ""
    assert f"index {index} outside universe of size 3" in err


def test_complex_command(capsys):
    payload = run_json(capsys, "complex", "Z4", "--pure", "--shellable", "--cm")
    result = payload["result"]
    assert result["facets"] == 2
    assert result["pure"] is True
    assert result["shellable"] is False
    assert result["cm_gf2"] is False
    # M2(Z4): one component, 24 facets of 64 vertices, over the face cap as
    # a whole; the link recursion decides CM, and shellability stays
    # undecided over the facet cap
    payload = run_json(capsys, "complex", "M2(Z4)", "--cm")
    assert payload["result"] == {"facets": 24, "dimension": 63, "cm_gf2": False}
    payload = run_json(capsys, "complex", "M2(Z4)", "--shellable")
    assert payload["result"] == {"facets": 24, "dimension": 63, "shellable": "undecided"}
    # GF(4096): K_4096, whose complex is 4096 points, shellable in any order
    payload = run_json(capsys, "complex", "GF(4096)", "--shellable")
    assert payload["result"] == {"facets": 4096, "dimension": 0, "shellable": True}


def test_complex_reads_shellability_off_cm(capsys):
    # GF(8) x GF(8): 16 facets, over the 12-facet cap, and not CM
    payload = run_json(capsys, "complex", "GF(8) x GF(8)", "--cm", "--shellable")
    assert payload["result"] == {
        "facets": 16, "dimension": 7, "shellable": False, "cm_gf2": False,
    }
    payload = run_json(capsys, "complex", "GF(8) x GF(8)", "--shellable")
    assert payload["result"]["shellable"] == "undecided"


def test_complex_exits_on_a_truncated_search(capsys):
    code, out, err = run(capsys, "complex", "M2(GF(8))", "--pure", "--time-budget", "0")
    assert code == EXIT_CAP and out == ""
    assert "truncated (time_budget)" in err


def test_a_spent_budget_starts_no_component_search(capsys):
    # Z2^12: 2048 components, K2 each; the deadline has passed at the first
    z2_12 = " x ".join(["Z2"] * 12)
    start = time.monotonic()
    payload = run_json(capsys, "wellcovered", z2_12, "--method", "brute", "--time-budget", "0")
    assert payload["result"]["observed"] == "undecided" and payload["truncated"] is True
    assert time.monotonic() - start < 1
    start = time.monotonic()
    payload = run_json(capsys, "classify", z2_12, "--cross-validate",
                       "--checks", "wc,cm,gorenstein", "--time-budget", "0")
    assert set(payload["result"]["observed"].values()) == {"skipped"}
    assert payload["truncated"] is True
    assert time.monotonic() - start < 1
    start = time.monotonic()
    code, out, err = run(capsys, "complex", z2_12, "--pure", "--cm", "--time-budget", "0")
    assert code == EXIT_CAP and out == ""
    assert "truncated (time_budget)" in err
    assert time.monotonic() - start < 1


def test_complex_stops_at_its_first_capped_component(capsys, monkeypatch):
    # Z2^12: 2048 components, each capped at one set; the first makes the
    # complex unbuildable, so no second search starts
    searches = []
    real = indsets.enumerate_mis

    def counting(g, **limits):
        searches.append(g.n)
        return real(g, **limits)

    monkeypatch.setattr(indsets, "enumerate_mis", counting)
    z2_12 = " x ".join(["Z2"] * 12)
    code, out, err = run(capsys, "complex", z2_12, "--pure", "--max-sets", "1")
    assert code == EXIT_CAP and out == ""
    assert "truncated (max_sets)" in err
    assert searches == [2]


def test_complex_spends_its_time_budget(monkeypatch, capsys):
    # M2(GF(8)) without its candidate automorphisms: one component of 4096
    # vertices whose plain search outlasts 2 s
    monkeypatch.setattr(cli, "build_graph", build_plain_graph)
    start = time.monotonic()
    code, out, err = run(capsys, "complex", "M2(GF(8))", "--pure", "--time-budget", "2")
    assert time.monotonic() - start < 4
    assert code == EXIT_CAP and out == ""
    assert "truncated (time_budget)" in err
    code, out, err = run(capsys, "complex", "Z2 x Z2", "--pure", "--max-sets", "1")
    assert code == EXIT_CAP and "truncated (max_sets)" in err


@pytest.mark.parametrize("expr", ["M2(Z4)", "M2(GF(4))"])
def test_complex_decides_cm_and_gorenstein_over_the_face_cap(capsys, expr):
    # each complex has more than 200000 faces, which the face walk listed
    payload = run_json(capsys, "complex", expr, "--cm", "--gorenstein")
    assert payload["result"]["cm_gf2"] is False
    assert payload["result"]["gorenstein_gf2"] is False


def test_complex_names_the_cap_that_fired(monkeypatch, tmp_path, capsys):
    # a facet file takes the face walk: the boundary of the 18-simplex, 19
    # facets with no common vertex, has 2^19 - 1 faces
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps([[v for v in range(19) if v != w] for w in range(19)]))
    code, out, err = run(capsys, "complex", "--facets-file", str(path), "--cm")
    assert code == EXIT_CAP and out == ""
    assert err.strip() == "cm_gf2: complex has more than 200000 faces"
    # the 17-simplex (2^18 faces) is a cone over {[]}: its facet has no
    # vertex outside the common intersection, so no face is walked
    path.write_text(json.dumps([list(range(18))]))
    payload = run_json(capsys, "complex", "--facets-file", str(path), "--cm", "--gorenstein")
    assert payload["result"] == {"facets": 1, "dimension": 17, "cm_gf2": True,
                                 "gorenstein_gf2": True}

    def over_the_link_cap(*args):
        raise cli.BudgetExceeded("Reisner's criterion visited more than 7 distinct links")

    # a ring's complex is judged on its graph
    monkeypatch.setattr(complexes, "ind_reisner", over_the_link_cap)
    code, out, err = run(capsys, "complex", "Z4", "--gorenstein")
    assert code == EXIT_CAP
    assert err.strip() == "gorenstein_gf2: Reisner's criterion visited more than 7 distinct links"


@pytest.mark.parametrize("argv", [["wellcovered", "M2(GF(8))"], ["mis", "M2(GF(8))", "--count"]])
def test_enumeration_commands_spend_their_time_budget(monkeypatch, capsys, argv):
    # M2(GF(8)) without its candidate automorphisms: one component of 4096
    # vertices whose plain search outlasts 2 s; wellcovered builds its graph
    # in cross_validate
    monkeypatch.setattr(cli, "build_graph", build_plain_graph)
    monkeypatch.setattr(classify, "build_graph", build_plain_graph)
    start = time.monotonic()
    payload = run_json(capsys, *argv, "--time-budget", "2")
    assert time.monotonic() - start <= 2 + 1.5
    assert payload["truncated"] is True


def test_m2_gf8_whole_family_commands_take_the_orbit_path(capsys):
    start = time.monotonic()
    payload = run_json(capsys, "mis", "M2(GF(8))", "--count")
    assert payload["result"] == {"count": 1152, "stop_reason": "exhausted"}
    payload = run_json(capsys, "complex", "M2(GF(8))", "--pure", "--cm")
    assert payload["result"]["facets"] == 1152 and payload["result"]["pure"] is True
    assert payload["result"]["cm_gf2"] is False
    assert time.monotonic() - start < 5
    # a family of max_sets or more sets is truncated, counted or listed
    for flag in ("--count", "--list"):
        payload = run_json(capsys, "mis", "M2(GF(8))", flag, "--max-sets", "100")
        assert payload["truncated"] is True
        assert payload["result"]["stop_reason"] == "max_sets"
        assert payload["result"]["count"] <= 100


def _cli_subprocess(*argv):
    """The envelope of `python -m unitgraphs argv`, and its wall time."""
    src = str(Path(unitgraphs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "unitgraphs", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    return json.loads(done.stdout), time.monotonic() - start


@pytest.mark.parametrize("expr", [
    " x ".join(["Z2"] * 12), " x ".join(["Z2"] * 8 + ["Z3"] * 2),
])
def test_counts_of_disconnected_unit_graphs_multiply_their_components(expr):
    # 2048 components of 2 vertices, and 128 of 18: the product of the
    # components' counts passes the default max_sets after a few of them
    # (a whole-graph search took 11.8 s and 21 s to count 10^6 sets)
    payload, wall = _cli_subprocess("mis", expr, "--count")
    assert payload["result"] == {"count": 1000000, "stop_reason": "max_sets"}
    assert payload["truncated"] is True
    assert payload["runtime_ms"] < 1000 and wall < 10


def test_a_product_that_is_exhausted_or_capped_keeps_its_envelope():
    # Z2^5: 16 components of 2 vertices, 2^16 sets
    payload, _ = _cli_subprocess("mis", "Z2 x Z2 x Z2 x Z2 x Z2", "--count")
    assert payload["result"] == {"count": 65536, "stop_reason": "exhausted"}
    assert payload["truncated"] is False
    payload, _ = _cli_subprocess("mis", "Z2 x Z2 x Z2 x Z2 x Z2", "--count", "--max-sets", "1000")
    assert payload["result"] == {"count": 1000, "stop_reason": "max_sets"}
    assert payload["truncated"] is True


def test_counting_holds_no_sets():
    # Z2^12: a perfect matching on 4096 vertices.  Counting multiplies the
    # components' counts and keeps none of the 10^5 sets (about 39 MB
    # peak), where closing the sets found would take about 68 MB
    z2_12 = " x ".join(["Z2"] * 12)
    script = (
        "import resource, sys\n"
        "from unitgraphs.cli import main\n"
        f"code = main(['mis', {z2_12!r}, '--count', '--max-sets', '100000'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = str(Path(unitgraphs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # On Linux a process's ru_maxrss starts at the peak of the process that
    # started it, so the run goes through a small launcher, not this one
    launch = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    done = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    result = json.loads(done.stdout)["result"]
    assert result == {"count": 100000, "stop_reason": "max_sets"}
    assert int(done.stderr.split()[-1]) < 50 * 1024  # ru_maxrss is in KiB


def test_complex_facets_file(tmp_path, capsys):
    path = tmp_path / "facets.json"
    path.write_text(json.dumps([[0, 1], [1, 2], [2, 3], [0, 3]]))
    payload = run_json(
        capsys, "complex", "--facets-file", str(path), "--cm", "--gorenstein"
    )
    assert payload["result"]["cm_gf2"] is True
    assert payload["result"]["gorenstein_gf2"] is True


def test_complex_refuses_a_ring_and_a_facets_file_together(tmp_path, capsys):
    path = tmp_path / "facets.json"
    path.write_text(json.dumps([[0, 1], [1, 2]]))
    code, out, err = run(capsys, "complex", "Z3", "--facets-file", str(path), "--cm")
    assert code == EXIT_USAGE and out == ""
    assert "'Z3'" in err and str(path) in err


def test_verify_shipped_catalog(capsys):
    code, out, err = run(capsys, "verify")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["result"]["disagreements"] == 0
    assert len(payload["result"]["entries"]) >= 30


def test_caches_stay_bounded_over_a_long_catalog(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{"ring": f"Z{n}"} for n in range(2, CACHE_SIZE + 10)]))
    code, out, err = run(capsys, "verify", "--catalog", str(path))
    assert code == EXIT_OK, err
    assert len(json.loads(out)["result"]["entries"]) > CACHE_SIZE
    assert build_graph.cache_info().currsize <= CACHE_SIZE


def test_verify_flags_disagreement(tmp_path, capsys):
    bad = [{"ring": "Z4", "well_covered": False}]  # wrong on purpose
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "verify", "--catalog", str(path))
    assert code == EXIT_DISAGREEMENT
    payload = json.loads(out)
    assert payload["result"]["disagreements"] == 1


def test_usage_error_on_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate", "Z4")
    assert code == EXIT_USAGE


def test_pretty_mode_renders_text(capsys):
    code, out, _ = run(capsys, "wellcovered", "Z4", "--pretty")
    assert code == EXIT_OK
    assert "predicted" in out and "{" not in out.splitlines()[0]

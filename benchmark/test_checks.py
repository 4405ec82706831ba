"""Tests of the benchmark's own checkers: each passes the correct output
and fails a wrong one, so no check is vacuous.

    python3 -m pytest -q benchmark/test_checks.py
"""

import json
import os
import sys
from collections import Counter
from importlib import resources

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import checks as C  # noqa: E402
import facts as F  # noqa: E402
import workloads as W  # noqa: E402


def _realization(expr):
    f = F.RINGS[expr]
    return {"order": f.order, "units": f.units, "radical": f.radical_order,
            "quotient": f.quotient_order, "shape": f.shape,
            "form_order": f.quotient_order, "classified": F.well_covered(f.shape)}


# -- the recorded facts ------------------------------------------------------

@pytest.mark.parametrize("expr", sorted(F.RINGS))
def test_recorded_unit_counts_follow_from_the_shapes(expr):
    f = F.RINGS[expr]
    assert f.order % f.quotient_order == 0
    gl = 1
    for n, q in f.shape:
        gl *= F.gl_order(n, q)
    assert f.units == f.radical_order * gl


def test_theorems_agree_with_the_shipped_catalog_expectations():
    catalog = json.loads(
        resources.files("unitgraphs").joinpath("data/catalog.json").read_text()
    )
    keys = {"well_covered": "well_covered", "cm": "cm_gf2",
            "shellable": "shellable", "gorenstein": "gorenstein_gf2"}
    for entry in catalog:
        want = F.expected_verdicts(F.RINGS[entry["ring"]])
        for key, obs_key in keys.items():
            if key in entry:
                assert want[obs_key] == entry[key], (entry["ring"], key)


# -- each checker fails a wrong output --------------------------------------

def test_realization_check_catches_a_unit_count_off_by_one():
    out = _realization("M2(Z8)")
    assert C.check_realization("M2(Z8)", F.RINGS["M2(Z8)"], out) == []
    out["units"] = 1535
    assert C.check_realization("M2(Z8)", F.RINGS["M2(Z8)"], out)


@pytest.mark.parametrize("key, value", [
    ("radical", 128), ("quotient", 8), ("shape", ((1, 2), (1, 2))),
    ("form_order", 15), ("classified", False),
])
def test_realization_check_catches_each_wrong_field(key, value):
    out = _realization("GF(16)")
    out[key] = value
    assert C.check_realization("GF(16)", F.RINGS["GF(16)"], out)


def test_verdict_check_catches_a_flipped_verdict():
    f = F.RINGS["GF(4)"]
    good = {"well_covered": True, "cm_gf2": True, "shellable": "skipped",
            "gorenstein_gf2": False}
    assert C.check_verdicts("GF(4)", f, good, {"well_covered": True, "cm": True}) == []
    assert C.decided(good) == 3
    assert C.check_verdicts("GF(4)", f, dict(good, gorenstein_gf2=True), {})
    assert C.check_verdicts("GF(4)", f, good, {"cm": False})
    assert C.check_verdicts("GF(4)", f, good, {"well_covered": None}) == []


def _ring_graphs(order, add, is_unit):
    unit = [sum(1 << y for y in range(order) if y != x and is_unit(add(x, y)))
            for x in range(order)]
    cayley = [sum(1 << y for y in range(order) if is_unit(add(x, -y)))
              for x in range(order)]
    return unit, cayley


def test_graph_check_catches_wrong_degrees_and_equality():
    z9 = _ring_graphs(9, lambda a, b: (a + b) % 9, lambda u: u % 3 != 0)
    assert C.check_graphs("Z9", F.RINGS["Z9"], *z9) == []
    unit, cayley = z9
    assert C.check_graphs("Z9", F.RINGS["Z9"], [unit[0] ^ 2] + unit[1:], cayley)
    assert C.check_graphs("Z9", F.RINGS["Z9"], unit, unit)  # char 3: must differ
    z8 = _ring_graphs(8, lambda a, b: (a + b) % 8, lambda u: u % 2 == 1)
    assert C.check_graphs("Z8", F.RINGS["Z8"], *z8) == []


def test_maximality_check_catches_a_non_maximal_set():
    path = [0b010, 0b101, 0b010]  # 0 - 1 - 2
    assert C.is_maximal_independent(path, [0, 2])
    assert not C.is_maximal_independent(path, [0])  # 2 can be added
    assert not C.is_maximal_independent(path, [0, 1])  # not independent
    assert C.check_witness_sets("P3", path, [[0, 2], [1]]) == []
    assert C.check_witness_sets("P3", path, [[0], [1]])
    assert C.check_witness_sets("P3", path, [[0, 2], [0, 2]])


def test_mis_cross_check_catches_wrong_sizes():
    path = [0b010, 0b101, 0b010]
    assert C.mis_size_counts(path) == Counter({2: 1, 1: 1})
    assert W._mis_check("P3", path, {2: 1, 1: 1}) == []
    assert W._mis_check("P3", path, {2: 1})


@pytest.mark.parametrize("q", [7, 8])
def test_matrix_arithmetic_matches_the_documented_encoding(q):
    import unitgraphs as ug

    ring = ug.build_ring(ug.parse_ring_expr(f"M2(GF({q}))"))
    arith = C.MatrixArith(q)
    units = ring.unit_set
    assert all((arith.det(x) != 0) == (x in units) for x in range(ring.order))
    assert all(arith.add(x, y) == ring.add(x, y) for x in range(0, ring.order, 37)
               for y in range(0, ring.order, 41))


def test_complement_check_catches_a_wrong_witness():
    arith = C.MatrixArith(7)
    y = arith.encode([1, 0, 0, 0])  # diag(1, 0)
    z = arith.encode([0, 0, 0, 1])  # diag(0, 1): singular, y + z = I
    assert C.check_complement_witnesses("M2(GF(7))", arith, [y], [z]) == []
    assert C.check_complement_witnesses("M2(GF(7))", arith, [y], [0])  # y + 0 singular
    unit = arith.encode([1, 0, 0, 2])
    assert C.check_complement_witnesses("M2(GF(7))", arith, [y], [unit])
    assert C.check_complement_witnesses("M2(GF(7))", arith, [y], [])


def test_catalog_check_catches_a_flipped_row():
    rings = ["Z4", "GF(3)"]
    rows = [
        {"ring": "Z4", "predicted": True, "observed": True, "ok": True,
         "cm_report": {"predicted": {"cm": False}, "observed": {"cm_gf2": False}}},
        {"ring": "GF(3)", "predicted": False, "observed": False, "ok": True},
    ]
    check = W._verify_check(rings)
    good = check((0, json.dumps({"result": {"entries": rows}})))
    assert (good.failed, good.decided, good.classified) == (0, 3, 2)
    rows[1]["observed"] = True
    assert check((0, json.dumps({"result": {"entries": rows}}))).failed == 1
    assert check((0, json.dumps({"result": {"entries": rows[:1]}}))).failed == 1

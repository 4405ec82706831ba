import json
import time

import pytest

from unitgraphs import cli
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
    "no-semisimple-form": ["construct", "GA(GF(3), C2)", "two-size"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_inputs_exit_without_traceback(tmp_path, capsys, argv):
    files = {
        "FILE_NOT_JSON": "not json",
        "FILE_NO_RING": json.dumps([{"well_covered": True}]),
        "FILE_NOT_BOOL": json.dumps([{"ring": "Z4", "well_covered": "yes"}]),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code in (EXIT_USAGE, EXIT_CAP), err
    assert "Traceback" not in err
    assert err.strip()


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


def test_graph_json_round_trips(capsys):
    from unitgraphs.graphs import graph_from_json, graphs_equal, build_graph
    from unitgraphs.rings import build_ring
    from unitgraphs.descriptors import Zn

    code, out, _ = run(capsys, "graph", "Z8", "--format", "json")
    assert graphs_equal(graph_from_json(out), build_graph(build_ring(Zn(8))))


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


def test_wellcovered_modes(capsys):
    payload = run_json(capsys, "wellcovered", "Z4", "--method", "both")
    assert payload["result"] == {"predicted": True, "observed": True, "agreement": True}
    payload = run_json(capsys, "wellcovered", "Z3", "--method", "classify")
    assert payload["result"] == {"predicted": False}


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


def test_construct_signature_and_zerorow(capsys):
    payload = run_json(capsys, "construct", "M2(GF(3))", "signature")
    assert payload["result"]["size"] == 4
    assert payload["result"]["verified_maximal"] is True
    payload = run_json(capsys, "construct", "M2(GF(3))", "zerorow")
    assert payload["result"]["size"] == 9
    code, _, err = run(capsys, "construct", "M2(GF(2))", "signature")
    assert code == EXIT_USAGE and "characteristic" in err


def test_construct_two_size(capsys):
    payload = run_json(capsys, "construct", "M2(GF(3))", "two-size")
    assert sorted(payload["result"]["sizes"]) == [4, 9]
    assert payload["result"]["verified_maximal"] is True


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


def test_complex_command(capsys):
    payload = run_json(capsys, "complex", "Z4", "--pure", "--shellable", "--cm")
    result = payload["result"]
    assert result["facets"] == 2
    assert result["pure"] is True
    assert result["shellable"] is False
    assert result["cm_gf2"] is False


def test_complex_facets_file(tmp_path, capsys):
    path = tmp_path / "facets.json"
    path.write_text(json.dumps([[0, 1], [1, 2], [2, 3], [0, 3]]))
    payload = run_json(
        capsys, "complex", "--facets-file", str(path), "--cm", "--gorenstein"
    )
    assert payload["result"]["cm_gf2"] is True
    assert payload["result"]["gorenstein_gf2"] is True


def test_verify_shipped_catalog(capsys):
    code, out, err = run(capsys, "verify")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["result"]["disagreements"] == 0
    assert len(payload["result"]["entries"]) >= 30


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

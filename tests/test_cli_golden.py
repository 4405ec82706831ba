"""The command line's outputs stay byte-identical apart from runtime_ms.

``tests/data/cli_golden.json`` records, per command, the argv of an
in-process ``cli.main`` run, its exit code, its stdout with every
``"runtime_ms": <n>`` masked to 0, and its stderr.  The test replays
each command and compares all four.  A change that means to alter an
output regenerates the file on purpose and says which entries moved:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import re
from pathlib import Path

from conftest import CATALOG_EXPRS
from unitgraphs.cli import main

ROOT = Path(__file__).resolve().parent.parent  # the facet files' paths are relative to it
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
RUNTIME = re.compile(r'"runtime_ms": \d+')

# the rings of the benchmark's oracle workload
ORACLE = [
    "Z1024", "Z2048", "M2(Z4)", "M2(GF(3))", "M2(GF(4))", "GA(GF(2), Q8)",
    "Z8 x Z8", "GF(8) x GF(8)", "GA(GF(3), C4)", "GA(GF(2), C6)",
    "GA(GF(3), C2)", " x ".join(["Z2"] * 6), " x ".join(["Z2"] * 5),
]
BOOLEAN_12 = " x ".join(["Z2"] * 12)
CAP_SCALE = [
    "GF(4096)", "Z4096", "M2(GF(7))", "M2(GF(8))", "GA(GF(3), C7)",
    "GA(GF(2), C11)", BOOLEAN_12, "Z2 x Z2 x Z3 x Z3", "Z2 x Z2 x Z7 x Z7",
]
ALL_FLAGS = ["--pure", "--cm", "--gorenstein", "--shellable"]
# tests/data/facets: the 6-vertex RP^2, the 17-simplex (a cone), the
# boundary of the 18-simplex (past the face cap), the bowtie, and Ind of
# the unit graphs of M2(GF(2)) and Z2 x Z2 x Z2
FACET_FILES = ["rp2", "simplex_17", "simplex_18_boundary", "bowtie", "m2_gf2", "z2_cubed"]


def commands() -> list[list[str]]:
    out = [["verify"], ["verify", "--pretty"]]
    for ring in CATALOG_EXPRS + ORACLE + CAP_SCALE:
        out.append(["classify", ring, "--cross-validate"])
        out.append(["classify", ring, "--cross-validate", "--checks", "wc"])
    for ring in CATALOG_EXPRS + ORACLE + ["M2(GF(8))", "Z2 x Z2 x Z3 x Z3"]:
        out.append(["complex", ring, *ALL_FLAGS])
    for ring in CATALOG_EXPRS:
        for method in ("brute", "classify", "both"):
            out.append(["wellcovered", ring, "--method", method])
        out.append(["mis", ring])
        out.append(["info", ring])
    for ring in ["Z2 x Z2 x Z7 x Z7", BOOLEAN_12, "M2(GF(5))", "M2(GF(8))"]:
        out.append(["mis", ring, "--count"])
    out.append(["classify", "M2(GF(2))", "--cross-validate", "--max-sets", "5"])
    out.append(["complex", "M2(GF(2))", *ALL_FLAGS, "--max-sets", "5"])
    # the first ring nests a product; the DSL flattens it
    for ring, order in [("(Z2 x GF(4)) x M2(Z2)", 128), ("GF(4) x M2(GF(2)) x Z3", 192)]:
        for y in range(0, order, 7):
            out.append(["construct", ring, "complement", "--y", str(y)])
    # semisimple rings that are not products of matrix rings over fields
    # as written, and a ring with a radical (exit 2)
    for ring, y in [("Z6", 2), ("GA(GF(2), C3)", 3), ("M2(GF(2) x GF(2))", 1), ("Z4", 2)]:
        out.append(["construct", ring, "complement", "--y", str(y)])
    for ring in ["M2(GF(3))", "M2(GF(5))", "GA(GF(3), C2)", "GA(GF(3), C4)", "Z3 x GF(9)"]:
        out.append(["construct", ring, "two-size"])
    for ring in ["M2(GF(2))", "M2(GF(3))", "M2(GF(4))", "M2(GF(5))", "M3(GF(2))"]:
        out.append(["construct", ring, "signature"])
        out.append(["construct", ring, "zerorow"])
    out.append(["construct", "M1(M2(GF(3)))", "zerorow"])
    # every command's --pretty rendering, and a truncated one
    for ring in ["Z4", "M2(GF(2))", "Z2 x GF(4)"]:
        out.append(["info", ring, "--pretty"])
        out.append(["mis", ring, "--list", "--pretty"])
        out.append(["classify", ring, "--cross-validate", "--pretty"])
        out.append(["complex", ring, "--pure", "--cm", "--pretty"])
    for ring in ["M2(GF(3))", "GA(GF(3), C2)"]:
        out.append(["construct", ring, "two-size", "--pretty"])
    out.append(["mis", BOOLEAN_12, "--count", "--max-sets", "5", "--pretty"])
    for ring in ["Z4", "M2(GF(2))"]:
        for kind in ("unit", "cayley"):
            for fmt in ("json", "dot"):
                out.append(["graph", ring, "--kind", kind, "--format", fmt])
    for ring in ["Z4", "Z6", "M2(GF(2))"]:
        out.append(["mis", ring, "--kind", "cayley", "--list"])
    out.append(["construct", "Z6", "claim", "--y", "2"])
    out.append(["construct", "M2(GF(2))", "claim", "--y", "1"])
    # lifts of quotient sets; 2 is not a unit in M2(Z4), so its unit lift exits 2
    for ring, side, qset in [
        ("Z9", "unit", "1,2"), ("Z9 x Z3", "unit", "4,5,7,8"), ("M2(Z4)", "unit", "1,2"),
        ("Z4 x Z2", "nonunit", "0,1"), ("M2(Z4)", "nonunit", "0,1,2,3"),
    ]:
        out.append(["construct", ring, "lift", "--side", side, "--quotient-set", qset])
    for name in FACET_FILES:
        out.append(["complex", "--facets-file", f"tests/data/facets/{name}.json", *ALL_FLAGS])
    # error exits: a malformed facet file, a ring together with a facet
    # file, bad rings, a lift without its set, a complex without input and
    # an unknown check (2), a cap (3)
    out.append(["complex", "--facets-file", "tests/data/facets/malformed.json", *ALL_FLAGS])
    out.append(["complex", "Z3", "--facets-file", "tests/data/facets/bowtie.json", "--cm"])
    out.append(["classify", "Z1"])
    # rings the descriptor rules refuse: field orders that are not prime
    # powers, a zero matrix size (alone and around a bad base), a cyclic
    # group of order 0, a coefficient ring that is not a field, a field
    # order past 2^40
    for ring in [
        "GF(6)", "M0(Z2)", "M0(Z1)", "GA(GF(4), C0)", "GA(GF(6), C2)", "GA(Z4, C2)",
        "GF(1000000016000000063)",
    ]:
        out.append(["info", ring])
    out.append(["construct", "Z4", "lift"])
    out.append(["complex"])
    out.append(["classify", "Z4", "--checks", "wc,bogus"])
    out.append(["info", "M2(Z9)"])
    out.append(["classify", "M2(Z9)", "--cross-validate"])
    return out


def run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return {
        "argv": argv,
        "exit": code,
        "stdout": RUNTIME.sub('"runtime_ms": 0', stdout.getvalue()),
        "stderr": stderr.getvalue(),
    }


def test_cli_outputs_match_the_golden_file(monkeypatch):
    monkeypatch.chdir(ROOT)
    entries = json.loads(GOLDEN.read_text())
    assert [e["argv"] for e in entries] == commands()
    moved = [" ".join(e["argv"]) for e in entries if run(e["argv"]) != e]
    assert not moved, f"outputs differ from {GOLDEN.name}: {moved}"


if __name__ == "__main__":
    os.chdir(ROOT)
    lines = ",\n".join(json.dumps(run(argv)) for argv in commands())
    GOLDEN.write_text(f"[\n{lines}\n]\n")

"""The three workloads: which operations a pass runs, and how each
operation's output is checked.

An operation (Op) is one call chain into the program with its own time
limit.  ``run`` returns what the program computed; ``check`` judges it
with checks.py and facts.py into an Outcome.  Where a check needs more
of the program's output than the op returned (graph rows, MIS sizes), it
asks for it outside the timed region.  Ring expressions stay strings
until an op runs, so parsing is part of the work being timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

import checks as C
import facts as F
import unitgraphs as ug
from unitgraphs import cli

ALL_CHECKS = ("wc", "cm", "shellable", "gorenstein")


@dataclass
class Outcome:
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    decided: int = 0
    classified: int = 0
    # a check run after the timed passes and the memory reading, because
    # its reference computation is heavy; returns error messages
    deferred: Callable[[], list[str]] | None = None


@dataclass
class Op:
    name: str
    limit_s: float
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    entries: int = 1  # checked outputs this op yields; each counts as one attempt


def _outcome(errors: list[str], decided: int = 0, classified: int = 0) -> Outcome:
    return Outcome(failed=1 if errors else 0, errors=errors,
                   decided=decided, classified=classified)


# ---------------------------------------------------------------------------
# catalog: `unitgraphs verify` on the shipped catalog, in-process
# ---------------------------------------------------------------------------

def catalog_ops(seed: int) -> list[Op]:
    """One op per pass; it yields one checked row per catalog ring.  The
    command takes no input order, so the seed changes nothing here."""
    del seed
    catalog = json.loads(
        resources.files("unitgraphs").joinpath("data/catalog.json").read_text()
    )
    rings = [entry["ring"] for entry in catalog]
    return [Op("verify", 60.0, _run_verify, _verify_check(rings), entries=len(rings))]


def _run_verify():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify"])
    return code, buf.getvalue()


def _verify_check(rings: list[str]):
    def check(out) -> Outcome:
        code, text = out
        rows = {row["ring"]: row for row in json.loads(text)["result"]["entries"]}
        outcome = Outcome()
        for expr in rings:
            facts, row = F.RINGS.get(expr), rows.get(expr)
            if facts is None or row is None:
                errors = [f"{expr}: no recorded facts or no output row"]
            else:
                observed = {"well_covered": row["observed"]}
                predicted = {"well_covered": row["predicted"]}
                if "cm_report" in row:
                    observed.update(row["cm_report"]["observed"])
                    predicted.update(row["cm_report"]["predicted"])
                errors = C.check_verdicts(expr, facts, observed, predicted)
                if not row["ok"]:
                    errors.append(f"{expr}: verify marked the row as a disagreement")
                outcome.decided += C.decided(observed)
                outcome.classified += row["predicted"] is not None
            if errors:
                outcome.failed += 1
                outcome.errors += errors
        if code != 0 and not outcome.failed:
            outcome.failed = len(rings)
            outcome.errors.append(f"verify exited {code} with every row correct")
        return outcome
    return check


# ---------------------------------------------------------------------------
# cap-ladder: realization and both graph kinds at 2048-4096 elements
# ---------------------------------------------------------------------------

# (expression, build graphs, run the brute-force well-covered oracle, limit s)
LADDER = (
    ("GF(4096)", True, True, 40.0),
    ("Z4096", True, False, 10.0),
    (F.boolean_expr(12), True, False, 40.0),
    ("M2(GF(8))", True, False, 40.0),
    ("M2(GF(7))", True, True, 10.0),
    ("Z9 x M2(Z4)", True, False, 10.0),
    ("GA(GF(2), C11)", True, False, 60.0),
    # These three fail today: unit_set (and for GA(GF(3), C7) the radical)
    # takes a scalar scan of minutes above the 2048-element table cap.
    # Realization only, with the 2 s limit the realization gate asks for.
    ("M2(Z8)", False, False, 2.0),
    ("GA(GF(2), C12)", False, False, 2.0),
    ("GA(GF(3), C7)", False, False, 2.0),
)
WITNESS_RINGS = (("M2(GF(7))", 7), ("M2(GF(8))", 8))
WITNESSES_PER_RING = 200


def cap_ladder_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        Op(expr, limit, _ladder_run(expr, graphs, oracle), _ladder_check(expr))
        for expr, graphs, oracle, limit in LADDER
    ]
    ops.append(Op("two_size M2(GF(7))", 5.0, _two_size_run, _two_size_check))
    for expr, q in WITNESS_RINGS:
        arith = C.MatrixArith(q)
        ys = _singular_sample(rng, arith, WITNESSES_PER_RING)
        ops.append(Op(f"complement {expr}", 10.0, _witness_run(expr, ys),
                      _witness_check(expr, arith, ys)))
    rng.shuffle(ops)
    return ops


def _singular_sample(rng: random.Random, arith: C.MatrixArith, count: int) -> list[int]:
    out = []
    while len(out) < count:
        x = rng.randrange(1, arith.q**4)
        if arith.det(x) == 0:
            out.append(x)
    return out


def _ladder_run(expr: str, graphs: bool, oracle: bool):
    def run():
        d = ug.parse_ring_expr(expr)
        ring = ug.build_ring(d)
        out = {"order": ring.order, "units": len(ring.unit_set)}
        out["radical"] = len(ug.jacobson_radical(ring))
        out["quotient"] = ug.quotient_by_radical(ring).order
        out["shape"] = ug.wedderburn_shape(d)
        if out["shape"] is not None:
            out["form_order"] = ug.semisimple_form(ring).canonical_ring.order
        if graphs:
            unit = ug.build_graph(ring, "unit")
            out["unit_rows"] = unit.rows
            out["cayley_rows"] = ug.build_graph(ring, "cayley").rows
            if oracle:
                out["observed"] = {"well_covered": _verdict(ug.well_covered_bruteforce(unit))}
        out["classified"] = ug.classify_well_covered(d)
        return out
    return run


def _verdict(value):
    return "skipped" if value is None else value


def _ladder_check(expr: str):
    facts = F.RINGS[expr]

    def check(out) -> Outcome:
        errors = C.check_realization(expr, facts, out)
        if "unit_rows" in out:
            errors += C.check_graphs(expr, facts, out["unit_rows"], out["cayley_rows"])
        observed = out.get("observed", {})
        errors += C.check_verdicts(expr, facts, observed, {})
        return _outcome(errors, C.decided(observed), out["classified"] is not None)
    return check


def _two_size_run():
    ring = ug.build_ring(ug.parse_ring_expr("M2(GF(7))"))
    return ring, [s.indices() for s in ug.two_size_witnesses(ring)]


def _two_size_check(out) -> Outcome:
    ring, sets = out
    rows = ug.build_graph(ring, "unit").rows
    return _outcome(C.check_witness_sets("M2(GF(7))", rows, sets))


def _witness_run(expr: str, ys: list[int]):
    def run():
        ring = ug.build_ring(ug.parse_ring_expr(expr))
        return [ug.nonunit_complement_witness(ring, y) for y in ys]
    return run


def _witness_check(expr: str, arith: C.MatrixArith, ys: list[int]):
    return lambda zs: _outcome(C.check_complement_witnesses(expr, arith, ys, zs))


# ---------------------------------------------------------------------------
# oracle: brute-force verdicts through cross_validate
# ---------------------------------------------------------------------------

# (expression, checks, limit s, cross-check the MIS size counts with
# networkx); every verdict here is decided or stopped by a count cap,
# never by a clock budget.
ORACLE = (
    ("Z1024", ALL_CHECKS, 10.0, False),
    ("Z2048", ALL_CHECKS, 30.0, False),
    ("M2(Z4)", ALL_CHECKS, 10.0, True),
    ("M2(GF(3))", ALL_CHECKS, 30.0, True),
    ("M2(GF(4))", ALL_CHECKS, 10.0, True),
    ("GA(GF(2), Q8)", ALL_CHECKS, 10.0, True),
    ("Z8 x Z8", ALL_CHECKS, 10.0, True),
    ("GF(8) x GF(8)", ALL_CHECKS, 10.0, True),
    ("GA(GF(3), C4)", ALL_CHECKS, 10.0, True),
    ("GA(GF(2), C6)", ALL_CHECKS, 10.0, True),
    ("GA(GF(3), C2)", ALL_CHECKS, 10.0, True),
    # 2^32 maximal independent sets: stops at the 10^6-set cap, undecided.
    (F.boolean_expr(6), ("wc",), 30.0, False),
    # Fails today: 65,536 facets filtered for maximality in O(m^2).
    (F.boolean_expr(5), ALL_CHECKS, 5.0, False),
)


def oracle_ops(seed: int) -> list[Op]:
    ops = [Op(expr, limit, _cross_validate_run(expr, chosen), _cross_validate_check(expr, mis))
           for expr, chosen, limit, mis in ORACLE]
    random.Random(seed).shuffle(ops)
    return ops


def _cross_validate_run(expr: str, chosen: tuple[str, ...]):
    def run():
        report = ug.cross_validate(ug.parse_ring_expr(expr), chosen)
        return report.observed, report.predicted
    return run


def _cross_validate_check(expr: str, mis: bool):
    facts = F.RINGS[expr]

    def check(out) -> Outcome:
        observed, predicted = out
        errors = C.check_verdicts(expr, facts, observed, predicted)
        outcome = _outcome(errors, C.decided(observed), predicted["well_covered"] is not None)
        if mis:
            graph = ug.build_graph(ug.build_ring(ug.parse_ring_expr(expr)), "unit")
            rows, sizes = graph.rows, dict(ug.enumerate_mis(graph, collect=False).sizes_seen)
            outcome.deferred = lambda: _mis_check(expr, rows, sizes)
        return outcome
    return check


_MIS_REFERENCE: dict[str, dict[int, int]] = {}


def _mis_check(expr: str, rows, sizes: dict[int, int]) -> list[str]:
    if expr not in _MIS_REFERENCE:
        _MIS_REFERENCE[expr] = dict(C.mis_size_counts(rows))
    want = _MIS_REFERENCE[expr]
    return [] if sizes == want else [f"{expr}: MIS sizes {sizes}, networkx finds {want}"]


WORKLOADS = {"catalog": catalog_ops, "cap-ladder": cap_ladder_ops, "oracle": oracle_ops}
